"""Seeded honest transcripts print exactly the recorded bytes.

The CLI tallies of the honest experiments cannot see every drawn bit: a
commitment checks only the matched positions, and a Rabin receiver reads
its outcomes only when r' = r. These digests pin the whole `to_json()` of
each honest protocol run, so a change in any draw, in the branch that a
coin fills, or in the decoder shows up here. Each digest is the sha256 of
the transcripts of `SEEDS`, concatenated in order.
"""

import hashlib

import pytest

from bqsm.protocols import (ChannelModel, hamming_7_4, repetition_code,
                            run_bb84_rabin_ot, run_commitment, run_ot12,
                            run_rabin_ot)

NS = (1, 24, 64, 100_000)
SEEDS = (0, 1, 2, 3)
NOISY = ChannelModel(phi=0.05)
PERFECT = ChannelModel()

CASES = {
    "rabin-hash": lambda n, seed: run_rabin_ot(
        seed & 1, NOISY, "honest", n, seed, mask="hash"),
    "rabin-xor": lambda n, seed: run_rabin_ot(
        seed & 1, NOISY, "honest", n, seed, mask="xor"),
    "bb84-rabin-hamming": lambda n, seed: run_bb84_rabin_ot(
        seed & 1, ChannelModel(phi=0.05, eta=0.1), "honest", n,
        hamming_7_4(0.05), seed),
    "ot12-standard": lambda n, seed: run_ot12(
        seed & 1, NOISY, "honest", n, 1, seed),
    "ot12-reversed": lambda n, seed: run_ot12(
        seed & 1, NOISY, "honest", n, 1, seed, direction="reversed"),
    "ot12-rep5": lambda n, seed: run_ot12(
        seed & 1, NOISY, "honest", n, 1, seed, code=repetition_code(5)),
    "comm": lambda n, seed: run_commitment(
        seed & 1, PERFECT, "honest", n, seed),
    "comm-noisy": lambda n, seed: run_commitment(
        seed & 1, NOISY, "honest", n, seed, variant="comm_noisy"),
}

DIGESTS = {
    ("rabin-hash", 1):
        "fc314263ec248b7e39e784ec4881e4703968dd31e2185ca3484d72f572b4534d",
    ("rabin-hash", 24):
        "153f943ee1ab9060e4b075b353d7367107637e54e45866f845072c8865240528",
    ("rabin-hash", 64):
        "bce90e51ff5bc3ae00e58575fa40a2ccf99ad7d02725a965350b604ebb20beea",
    ("rabin-hash", 100000):
        "c1d2c6af1521e7e5d11cf8fe24cfcbc22c034835338ce1653dbb3458c79cb35c",
    ("rabin-xor", 1):
        "5cf3b2ac977f591dcc38e351cc0da5ff831f725ebab839695e04db5d0abf696f",
    ("rabin-xor", 24):
        "1b93d57fdbd94f126ccf6c8e63c46fb104df369b17533a92938970e1a8284ab9",
    ("rabin-xor", 64):
        "8c898fe1adf752822bda1e62582cb425f39a855161c4a78da5e3bf988086f556",
    ("rabin-xor", 100000):
        "e9d9b0ab8a0d97663a06b852606559200a9773509e358e90ed703dd9fcca49cb",
    ("bb84-rabin-hamming", 1):
        "53925eaf2be23deb4e94017c044c47d074f8ae9e88d3b47ae37e4278c452c8e3",
    ("bb84-rabin-hamming", 24):
        "442ff11939f75642f46895edc4560bb2a9434749a0c98806ace99c3bf7cb28fb",
    ("bb84-rabin-hamming", 64):
        "46d1c4c30db99343b44b15a746a861923127af637a74f5aca3be901ad095a9a4",
    ("bb84-rabin-hamming", 100000):
        "4ea9d5a523f158f15bc4cdd2cd023568d10a9789f1045a4cd3dbea8f06c61b1e",
    ("ot12-standard", 1):
        "74ecad1a7eb8294dabdc4a7706aa764b4be429026fdcdf1f3200e644c000db44",
    ("ot12-standard", 24):
        "2c2c611f90221c0940e001ce1a885ff8beb00965f73236831e3a3fefcbc61ef5",
    ("ot12-standard", 64):
        "7d2855e796b2a84d2b81bf4085575cbd5e1447ec26d7671a9c4285b1bedea5cf",
    ("ot12-standard", 100000):
        "bd4bb2b6ae1ad17e404634d7f85b507c89b0a425909e98f3bedf681e6772a8c1",
    ("ot12-reversed", 1):
        "fd346b8f2636e98b519a48ca197292c2ad86dd7dc126491bc2ba174d3489bbca",
    ("ot12-reversed", 24):
        "7a0d6f4f11da670ee3251e74877c9b677cba3c9722a63ddc2a6e8bb32d8ebcca",
    ("ot12-reversed", 64):
        "b8e7af75e68af51e51744503f7b98af0357810f1125f0a1837c96a8ce1c9306c",
    ("ot12-reversed", 100000):
        "08cb390c199e0db918ca4b50fc3dd128bbbb5c31ea8100a7a1ad222451db3750",
    ("ot12-rep5", 1):
        "6d7c31b0406a773d39ff3ea5bbce1fc02db6d7fb06843adea44d5849714061b7",
    ("ot12-rep5", 24):
        "2a74cb2b3ff50ed201b39922b560440b4bf8854b171d4e874e0f448d0116cd91",
    ("ot12-rep5", 64):
        "11a9c52fc558e80aa10166a4bb2054aa8cd6aca5da98bea7ddf9f73c5dd2ca1b",
    ("ot12-rep5", 100000):
        "52ea1e14c567ea1e42bb2f9e75bdd389307f0303c6f473fadf84b80b36981dfb",
    ("comm", 1):
        "57c4735be10044bc20b581735f1dc13208046f9c6f8a069bce50f5b0e09a31f5",
    ("comm", 24):
        "bde2a3f84188fd7da975f83f7a378a5aff73679fe985381ce951ac6191724318",
    ("comm", 64):
        "adf4a64d82d2190e87f4a5e8676d5afec2a9ffa0a671fc56ab87dc918b424d8d",
    ("comm", 100000):
        "f32164da6b260b14805e61572ab09e1ecb9fc82d3d84a1a849039356bbb13bde",
    ("comm-noisy", 1):
        "47b4bc2a10eae8e99835fe6e3f807d0bec04d9035208e46317ece603aae49cae",
    ("comm-noisy", 24):
        "04f3f2d09cb0a35c20bb42a4e21ef0e9c5aada02dcc4a5c55ca7162fee9cc80a",
    ("comm-noisy", 64):
        "b423a417b08a35370d47f4649c0f3ffa6db18ac59a60822451ecfdcbc75d1751",
    ("comm-noisy", 100000):
        "fea444416330edb9127c36821c32c2c3f1e4395cc0a692e135416d22d76e3065",
}


@pytest.mark.parametrize("case,n", sorted(DIGESTS))
def test_honest_transcript_digest(case, n):
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(CASES[case](n, seed).to_json().encode())
    assert h.hexdigest() == DIGESTS[case, n]


def test_every_case_is_pinned():
    assert set(DIGESTS) == {(c, n) for c in CASES for n in NS}
