"""Golden outputs: every command's files on a small grid, hashed.

Each entry's own flags follow the shared GRID flags, so they override them.
The hashes skip the provenance block the same way `perfbench/run.py`'s
`digest` does, so this checks the benchmark's byte-for-byte rule in
seconds. A deliberate output change re-records them (print `_digests` of
each command) and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from extrout.expcli import main

GRID = ["--rows", "8", "--cols", "8", "--perturbation", "0",
        "--tx-range", "150", "--qudg-factor", "0.95", "--seed", "3"]

# An 8x8 jittered Q-UDG grid whose ids are sparse, negative too, and do not
# follow the grid's order, so a search that mixed up ids and indices into
# the sorted ids would change these outputs. Its flags override GRID's.
SPARSE = ["--topology-file", str(Path(__file__).parent / "data" / "sparse_ids_8x8.txt")]

# A 20x20 grid with TopologyParams' default jitter and link band, which
# override GRID's.
DEFAULT_20x20 = ["--rows", "20", "--cols", "20", "--perturbation", "0.25",
                 "--tx-range", "145", "--qudg-factor", "0.25"]

# Provenance lines embed the output directory, so the hashes skip them.
_PROVENANCE = re.compile(rb"# (command|[a-z]+\.[a-z_]+)=")

GOLDEN = {
    "topology": (["topology"], {
        "topology.txt":
            "c3428009b2ba7586590d4b9c6a16d0662aa8e5a0923bae7858d7f22a7539f71a",
    }),
    # A band of 36.25-145 m around jittered nodes: link variates are drawn,
    # so this digest changes if they are drawn in another pair order. A
    # 7x11 grid is not square, so its header ends with its shape.
    "topology_sparse": (["topology", "--rows", "7", "--cols", "11",
                         "--perturbation", "0.25", "--tx-range", "145",
                         "--qudg-factor", "0.25", "--seed", "3"], {
        "topology.txt":
            "7849e922fec23ad4ee071145e065dd879bc99b4cbfd13798795043750a1cb853",
    }),
    "run": (["run", "--variant", "extrout_fake", "--count", "1",
             "--target-hops", "4", "--reps", "3",
             "--budget", "25", "--attack-trials", "100"], {
        "matrix.csv":
            "989186f73039ee27db148132be9d676206a97384a52cefc90ad7337d7a57082d",
        "heatmap.txt":
            "8b5dfb8800debc7a397f364dae6e9b5275900c967f982a4615dab8965f607622",
        "report.txt":
            "52c6fafc38d98337fe9265e76af9d612652ba095880d2fe0b16e6e3e9638b22d",
        "report.csv":
            "445f785233659248079e83982f295b89215a3c67b64aec72bfe61bd69e8fe6a0",
    }),
    "attack_duplicates": (["attack", "--variant", "extrout_duplicates",
                           "--count", "2", "--target-hops", "4",
                           "--trials", "100", "--budget", "25"], {
        "attack.csv":
            "596851e5c8e224c01fb12a6f1b260b21ecd1ad63b275c7b44e64ed68660c4b10",
        "attack.txt":
            "e63d2031b1ae97334d10795b0e044d707d82288ac982ebc21a8c57a7431ac5f3",
    }),
    # Default-profile 20x20 plans whose strict excluded route cuts the goal
    # off, so every first disjoint-path walk dead-ends and falls back to
    # the full search, which finds nothing.
    "attack_duplicates_cut_off": (["attack", *DEFAULT_20x20, "--seed", "9",
                                   "--variant", "extrout_duplicates",
                                   "--count", "3", "--target-hops", "6",
                                   "--trials", "100", "--budget", "25"], {
        "attack.csv":
            "9a3419cbfb8ece754c522061655a53af02ec3e47850f4275233f729318a88924",
        "attack.txt":
            "12b38707b5fdff2f1d788106c5d66b6aae317428d5caaea557b6ff2e9f65fb6e",
    }),
    # Lenient plans on the same profile: 86 of the 100 first walks dead-end
    # and the fallback finds a longer path.
    "attack_duplicates_detour": (["attack", *DEFAULT_20x20, "--seed", "2",
                                  "--variant", "extrout_duplicates",
                                  "--count", "2", "--strict", "false",
                                  "--target-hops", "6", "--trials", "100",
                                  "--budget", "25"], {
        "attack.csv":
            "8acf9493629b16760435cadf634ed1e776468519375d88002517f304e79112b8",
        "attack.txt":
            "13cff78c186969b131eabb5e5ce56075c360d80e8d9f68b04fc039768e0152d2",
    }),
    "attack_fake": (["attack", "--variant", "extrout_fake", "--count", "1",
                     "--target-hops", "4", "--trials", "100",
                     "--budget", "25"], {
        "attack.csv":
            "d8aa624e5e5a6a42dc540bf66bae1f5adae3b5aa53ff795fae95f20bb460de24",
        "attack.txt":
            "79ec26aab0b383f30e193f04299a3d599ea7747da4141a834aca5045d5304ec3",
    }),
    "attack_no_privacy": (["attack", "--variant", "no_privacy",
                           "--target-hops", "4", "--trials", "100",
                           "--budget", "25"], {
        "attack.csv":
            "a86230fa237a5050c6a7fd3bf3d19d37d231f608683d0ff261378a71b3f1f1fe",
        "attack.txt":
            "3ceebb27bf3797149db8bb599cb4f5b96663ac7cccc1f09f6914762d3e1cd13e",
    }),
    "attack_baseline": (["attack", "--variant", "extrout_baseline",
                         "--target-hops", "4", "--trials", "100",
                         "--budget", "25"], {
        "attack.csv":
            "62f15a33b8f56532e201d2da42478b629c51f54bc8c8c9c1e8f200761d4ccd09",
        "attack.txt":
            "5ff7016edb305becc51191194bebf3de5929188389b5c11fc9a9126791cda622",
    }),
    "attack_nfake": (["attack", "--variant", "nfake_pairs", "--count", "2",
                      "--target-hops", "4", "--trials", "100",
                      "--budget", "25"], {
        "attack.csv":
            "831b6ed01b2dd94163e7cd9a65b97f8c206d77dc008553c079eff68cf3a8c5e4",
        "attack.txt":
            "ef4222f9d2e267d9913dc67f61c9f143e948dedcdcf1ea7befcec56d7037d1eb",
    }),
    "attack_sparse_fake": (["attack", *SPARSE, "--variant", "extrout_fake",
                            "--count", "1", "--target-hops", "4",
                            "--trials", "100", "--budget", "25"], {
        "attack.csv":
            "1629da55ce6c5b6cd9f5ad401f490c670813e2b8ee40faef4b5f9e1bbb3e1428",
        "attack.txt":
            "2e71c8882874324d24b5024a43679b1abbe5fb3c90e009baecb743b14fbee3dc",
    }),
    "attack_sparse_duplicates": (["attack", *SPARSE, "--variant",
                                  "extrout_duplicates", "--count", "2",
                                  "--target-hops", "4", "--trials", "100",
                                  "--budget", "25"], {
        "attack.csv":
            "9f74aae9d438e75cf40ac8c39c171282837e46e8082d73bf4853a35f1f1fd3d3",
        "attack.txt":
            "5d64b62a368fa01ca80ec73e6c94cd182187d9944f5f25ed234384fb391be09a",
    }),
    "report": (["report"], {
        "reference_report.txt":
            "93d3ff1d8f65bd7ad3a2bb7efbd628f2d566f6798f7e8798653c95c6382ae9cf",
    }),
    "sweep": (["sweep", "--hop-targets", "3,4,5", "--pairs-per-target", "2",
               "--source-ext", "1", "--dest-ext", "1", "--frontier-hops", "4",
               "--duplicate-counts", "1,2", "--fake-counts", "1",
               "--nfake-counts", "1,3", "--reps", "2", "--budget", "20"], {
        "anonymity_vs_L.csv":
            "0f53c0a41ba4be3284ab35782da75ed0a755244bbd3fc5378f8558902939375a",
        "anonymity_vs_tof.csv":
            "4aa73968cfd6be4c00c65aab050810a743355ea0cd740a7534324cb5a4958e3f",
    }),
    # The default-profile 20x20 grid of seed 3 falls into 71 components (the
    # largest holds 128 of 400 nodes), so most pair draws span two of them.
    # Three-decoy plans on nine sampled routes share the one topology.
    "sweep_fragmented": (["sweep", *DEFAULT_20x20, "--variant", "nfake_pairs",
                          "--count", "3", "--hop-targets", "4,8,12",
                          "--pairs-per-target", "3", "--source-ext", "1",
                          "--dest-ext", "1", "--frontier-hops", "8",
                          "--duplicate-counts", "1,2", "--fake-counts", "1",
                          "--nfake-counts", "1,3", "--reps", "2", "--budget", "20"], {
        "anonymity_vs_L.csv":
            "bc734f4eefdd7021e15d3c5fc979b8bf6f3999aafa46edfdcd97736af255e7a1",
        "anonymity_vs_tof.csv":
            "c9662dc3ad6015db3b68d64046efbc2a7ffc168d276dccbbcc775203bb77731a",
    }),
    "sweep_sparse": (["sweep", *SPARSE, "--hop-targets", "3,4,5",
                      "--pairs-per-target", "2", "--source-ext", "1",
                      "--dest-ext", "1", "--frontier-hops", "4",
                      "--duplicate-counts", "1,2", "--fake-counts", "1",
                      "--nfake-counts", "1,3", "--reps", "2", "--budget", "20"], {
        "anonymity_vs_L.csv":
            "bc301aac8476c2bf19b2ceab1ea4c9ade2ccffcf4928d9b38e2fd47aecf980a8",
        "anonymity_vs_tof.csv":
            "fac6fae632bedf8d4ab89dace1be6ad2b1f1d0b0d2077a608406d010056cbb83",
    }),
}


def _digest(payload: bytes) -> str:
    lines = payload.splitlines(keepends=True)
    start = 0
    while start < len(lines) and _PROVENANCE.match(lines[start]):
        start += 1
    return hashlib.sha256(b"".join(lines[start:])).hexdigest()


def _digests(command: str, out) -> dict[str, str]:
    args, expected = GOLDEN[command]
    assert main([args[0], *GRID, *args[1:], "--out", str(out)]) == 0
    return {name: _digest((out / name).read_bytes()) for name in expected}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_outputs_match_the_recorded_digests(tmp_path, command):
    assert _digests(command, tmp_path / "out") == GOLDEN[command][1]
