"""Golden CLI outputs: the sha256 of stdout and the exit code of a fixed set
of commands.  A change that alters one of these outputs on purpose updates
its digest here and says so in CHANGES.md."""

import hashlib
import json

from hibiring.cli import main

# (argv, exit code, sha256 of stdout); "{name}" stands for a lattice file
# written from the conftest fixture of that name
GOLDEN = [
    ("betti --grid 3 3 --format json", 0,
     "c2ee9ba82fbcc8bfb2136f1f345806abdbe58614362692c77073d6f1815bde58"),
    ("census --max-elements 10 --format json", 0,
     "4dae84e30115ffb2479d0e37c1e87964770c89d45eda77f96d5f26baa9cf2d9a"),
    ("census --max-elements 12 --format json", 0,
     "e80cf9c08b8c256cdb1c9068ddcf9139c712918d32c607bd8f50a6e91c3393f1"),
    ("census --max-elements 9 --format csv", 0,
     "30f57cf8bcb392a7d6e825b901fd87404d2c127d82fa3f4b680b52c2a35f5e7d"),
    ("syzygy --grid 2 3 --verify --classify", 0,
     "83d2521b9959c4098830745b4842e5f06e12f9d4d482a75142b2961d4cfff0f2"),
    ("syzygy --grid 3 3 --verify --format json", 0,
     "f71e18bb7c9be7674b66a5246d021039559b3e5791555c626724820b4f6b3622"),
    ("syzygy --grid 4 4 --verify --format json", 0,
     "da45ccc595b5eb468b2bcb183f5510ca6206b138fdebe22af407e42dacf7b664"),
    ("linearity --grid 6 6 --verify", 0,
     "0b0f08b8dcd3a253ff84e887526e7b78e85de7810ebdb34b1532a35657c6e4c0"),
    ("betti --file {diamond_counterexample} --mode both --format json", 0,
     "0e2877d568db02365d33e0d70017f4b9ea6092ecd18aa627c3fd1c36cd741b44"),
    ("betti --file {bridged_diamonds} --mode formula", 0,
     "6426ef9a9ceeb0a0ee326f080a38d3f51bbf22f8cf7693fcf07c9f06edcc18da"),
    ("ideal --grid 2 3 --export m2", 0,
     "e87b19ca1594a8fa295b1685a34fa204e2f91ccc4e5d374d0d5222aa62b8464b"),
    ("ideal --grid 2 3 --field fp:101", 0,
     "3bc989fb382aaa3d45cea6c1d4e4c00881dcc4c96285a1c25056c58a936745b6"),
    ("ideal --grid 2 3 --field fp:101 --export json", 0,
     "fc70b2c675376883c618b16e4e7cd0348181e95ffe2df323a1dc854e51e39169"),
    ("ideal --grid 2 3 --field fp:101 --export m2", 0,
     "42328134f536d55653e52b98037abab8c03c74bc7bd67bdee37111fda77d5b32"),
    ("ideal --grid 2 3 --field fp:32003 --export singular", 0,
     "b3332b02af179f72b7b16141394b873ffd63be5f666f07d96b1279dc65cb70fc"),
    ("lattice --grid 2 3 --format json", 0,
     "949b69e0f9a945e5c48a73fce92304da7fd2f911d9f28a355937d827cb6bca1f"),
]


def test_golden_outputs(capsys, tmp_path, diamond_counterexample,
                        bridged_diamonds):
    files = {}
    for name, L in [("diamond_counterexample", diamond_counterexample),
                    ("bridged_diamonds", bridged_diamonds)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(L.to_json_dict()))
        files[name] = str(path)
    for command, code, digest in GOLDEN:
        got = main(command.format(**files).split())
        out = capsys.readouterr().out
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (
            code, digest), command
