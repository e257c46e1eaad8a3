"""Byte-identical CLI output over the valuation and oracle corpora.

Each mode runs ``main`` in process on every corpus arc under every
``seed_choices`` quantization and hashes, in order, the case name, the exit
code, stdout and stderr of each call.  The frozen digests pin the output of
every subcommand that reads an arc, so a change that should not alter the
output can be checked byte for byte without a second checkout.  The
``expand --audit`` modes pin the audit rows followed by the commutative
expansion.  The ``verify sheared`` mode adds longer flip plans (annulus
bridges w = +-7, +-8 and the ladder d = 10) under :func:`sheared_seed`,
whose divisions have more terms and negative coefficient exponents.  The
``sheared`` expand modes run every valuation and oracle corpus arc under
:func:`sheared_seed`, whose bottom block is not the identity, so they pin the
output where the tropical normalization of exponents shifts them.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import (
    annulus,
    annulus_bridge,
    ladder_arc,
    ladder_surface,
    oracle_corpus,
    seed_choices,
    sheared_seed,
    valuation_corpus,
)
from snakeq.cli import main

EXPAND_MODES = {
    "expand": ("expand",),
    "expand --machine": ("expand", "--machine"),
    "expand --audit": ("expand", "--audit"),
    "expand --audit --machine": ("expand", "--audit", "--machine"),
    "expand --quantum": ("expand", "--quantum"),
    "expand --quantum --machine": ("expand", "--quantum", "--machine"),
    "expand --quantum --audit": ("expand", "--quantum", "--audit"),
    "expand --quantum --audit --machine": (
        "expand", "--quantum", "--audit", "--machine",
    ),
    "matchings": ("matchings",),
    "valuation": ("valuation",),
}

SHEARED_MODES = {
    f"{mode} sheared": EXPAND_MODES[mode]
    for mode in (
        "expand --machine",
        "expand --quantum --machine",
        "expand --quantum --audit --machine",
    )
}

DIGESTS = {
    "expand": (
        "da293b01f986fe93fa4e7aebd0ba94dc"
        "c62c40a7210341773c82fe2461d16fe5"
    ),
    "expand --machine": (
        "736320cebcca8e38580116864798c4ec"
        "c86743a9e99971ec9e1767aadb5a689b"
    ),
    "expand --audit": (
        "8dfb902dd56f7557471da6b12c7b077d"
        "bfd8bc567689abc7ed3cff9610f02699"
    ),
    "expand --audit --machine": (
        "4958653a47e4b399a1d35e64fbb7b236"
        "dc50fa8a2b3e96ed0ac12d11ed438be6"
    ),
    "expand --quantum": (
        "17ba8f4a25ca11f98d6d04540dd5f144"
        "33816ccc15bcdaa1078be008d0e740a6"
    ),
    "expand --quantum --machine": (
        "bf8c5687e2e9eb223e4d81dfe08a5ddd"
        "31fbe89dfd34a08661f001077439d9fd"
    ),
    "expand --quantum --audit": (
        "46a5949e39e62dad3e44dc0041954864"
        "4906fb3d879f22551ee64de9f2913cfc"
    ),
    "expand --quantum --audit --machine": (
        "b225f8f609d6e24e8f40839410c793d2"
        "6717d50d86ef34ffe1d6bc0d82a935d8"
    ),
    "matchings": (
        "36df2a04ebf4bf4d99414427472705bd"
        "49d47ac4e015e212f88ed94cb824a3fc"
    ),
    "valuation": (
        "18e18bd67fdd3d2a2c37d48b95ecb8a1"
        "48ed68473b668b9d58d506bc31773612"
    ),
    "expand --machine sheared": (
        "94d716f735185842c14caede6e84c864"
        "b280b7f61d144e9328d836e8c300c251"
    ),
    "expand --quantum --machine sheared": (
        "b982f2615f2141688306613a7e3b4f87"
        "521b77d88e63b3f04eabd270fe80142e"
    ),
    "expand --quantum --audit --machine sheared": (
        "82808f975856b77d8cd5e72db4d064e4"
        "3a95cbefca4ac7ce53ac0560ad777060"
    ),
    "verify": (
        "8d56c0e16c84353afc9772d07c98cdb8"
        "330255929dbb35e7dfaba24fc098a029"
    ),
    "verify sheared": (
        "00d80650560d9c0addfe8cb1c3436485"
        "090f7944a451116f08d0242a6f809e74"
    ),
}


def wide_oracle_corpus():
    """Longer oracle plans: (name, surface, arc, plan)."""
    t = annulus()
    out = []
    for w in (7, -7, 8, -8):
        arc, plan = annulus_bridge(w)
        out.append((f"annulus bridge {w}", t, arc, plan))
    out.append(("ladder 10", ladder_surface(10), ladder_arc(10), list(range(10))))
    return out


def _calls(directory):
    """(mode, case name, argv) for every call, in a fixed order."""

    def write(name, payload):
        path = directory / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    surfaces: dict[str, str] = {}
    seeds: dict[tuple[str, int], str] = {}

    def inputs(case, t, arc):
        key = json.dumps(t.to_dict(), sort_keys=True)
        if key not in surfaces:
            surfaces[key] = write(f"surface{len(surfaces)}.json", t.to_dict())
            for i, seed in enumerate(seed_choices(t)):
                seeds[key, i] = write(f"seed{len(seeds)}.json", seed.to_dict())
        arc_path = write(f"arc{case}.json", arc.to_dict())
        return surfaces[key], arc_path, [seeds[key, i] for i in range(3)]

    out = []
    for case, (name, t, arc) in enumerate(valuation_corpus()):
        surface, arc_path, seed_paths = inputs(case, t, arc)
        for i, seed in enumerate(seed_paths):
            common = ("--surface", surface, "--arc", arc_path, "--seed", seed)
            for mode, head in EXPAND_MODES.items():
                out.append((mode, f"{name} seed {i}", (*head, *common)))
    offset = len(valuation_corpus())
    # each valuation and oracle corpus arc once, by name, under sheared_seed
    named = {name: (t, arc) for name, t, arc in valuation_corpus()}
    for name, t, arc, _ in oracle_corpus():
        named.setdefault(name, (t, arc))
    for case, (name, (t, arc)) in enumerate(named.items(), start=offset):
        surface = write(f"surface{case}.json", t.to_dict())
        seed = write(f"sheared{case}.json", sheared_seed(t).to_dict())
        arc_path = write(f"arc{case}.json", arc.to_dict())
        common = ("--surface", surface, "--arc", arc_path, "--seed", seed)
        for mode, head in SHEARED_MODES.items():
            out.append((mode, name, (*head, *common)))
    offset += len(named)
    for case, (name, t, arc, plan) in enumerate(oracle_corpus(), start=offset):
        surface, arc_path, seed_paths = inputs(case, t, arc)
        flips = ",".join(map(str, plan))
        for i, seed in enumerate(seed_paths):
            argv = (
                "verify", "--surface", surface, "--arc", arc_path,
                "--seed", seed, "--flips", flips,
            )
            out.append(("verify", f"{name} seed {i}", argv))
    offset += len(oracle_corpus())
    for case, (name, t, arc, plan) in enumerate(wide_oracle_corpus(), start=offset):
        surface = write(f"surface{case}.json", t.to_dict())
        seed = write(f"sheared{case}.json", sheared_seed(t).to_dict())
        arc_path = write(f"arc{case}.json", arc.to_dict())
        argv = (
            "verify", "--surface", surface, "--arc", arc_path,
            "--seed", seed, "--flips", ",".join(map(str, plan)),
        )
        out.append(("verify sheared", name, argv))
    return out


def mode_digests(directory) -> dict[str, str]:
    """The sha256 of every mode's calls, keyed by mode."""
    hashes: dict[str, hashlib._Hash] = {}
    for mode, name, argv in _calls(directory):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(list(argv))
        record = f"{name}\0{code}\0{stdout.getvalue()}\0{stderr.getvalue()}\0"
        hashes.setdefault(mode, hashlib.sha256()).update(record.encode())
    return {mode: h.hexdigest() for mode, h in hashes.items()}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return mode_digests(tmp_path_factory.mktemp("digests"))


@pytest.mark.parametrize(
    "mode", [*EXPAND_MODES, *SHEARED_MODES, "verify", "verify sheared"]
)
def test_cli_output_is_unchanged(digests, mode):
    assert digests[mode] == DIGESTS[mode]
