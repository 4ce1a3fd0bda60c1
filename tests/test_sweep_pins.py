"""The verify sweeps' random instances, pinned.

For seeds 0, 2 and 7 at the sizes of ``test_verify_suite_small`` this
records, for every generator a suite makes (in the order it makes them),
its state once the suite has run and a sha256 over every random pack drawn
from it, in draw order: the pack's size, its boundary ids and the bytes of
its distance matrix.  A pack is matched to its draw through its coordinates,
which are the planar points the generator returned.  The summary lines are
pinned too.  A sweep that draws one value in another order, or builds
another pack from the same draws, fails here.
"""

import hashlib
import json

import numpy as np
import pytest

import c0cover as cc
from c0cover.packs import DiscretePack

SIZES = {"identities": 80, "transfer": 50, "star": 40, "shrink": 40, "ext_random": 20}

# seed -> ([(sha256 of the generator's final state, packs drawn, sha256 of those packs)], summary lines)
PINS = {
    0: (
        [
            (
                'bec4e0594b4c44a4c1de03360ea47d9fd2b84cf78ee967f7480c34c5a181b409',
                3,
                'f8019b658037130de4baafa09acc3800b38cae669c8da390a6d7e5709a7b174e',
            ),
            (
                'f694eb28940a9ea064f77b54fb845bfb8bccba2ee5d4dae0a61781d7b00fcb41',
                1,
                '1fd8f92424bc014636f4ad7ee35b0797703c833a0ec89029b13fbc000536e3c6',
            ),
            (
                'd3098b140278afd7a356c06bc6cb485702689514fe9868029adc5d7cf78aa34a',
                20,
                '4acd5c6ffcf9a386c845035410606ae01c92cdff4e3f596d156f2a01c56f7a89',
            ),
            (
                '02efd73b20234b4e74676690d2237f54d03cc43994ba745b4867cdba9a7fcbcf',
                200,
                '9e3bb8fd8250c4e3459f088b0cbf75d716d36c2da30fa7b349d2dd1631176947',
            ),
            (
                '49c663593af43f160ed35b06c996bf87f1f9063c2fd3ee923fe37682a4adbc1c',
                40,
                'b5a546337608338e87b17a419ab661dbc7da982c8f664e19107eaa32ef93c3c0',
            ),
            (
                'f61cb815c2fde702b5398914f9d30530218fdbe9368ee424243b7898a0f5e7ea',
                40,
                '211c9fb57a3f80b4230cd325e4504cad6aa9dd9358259da352fd2b67b3bbc7ca',
            ),
        ],
        [
            'pass  identity-1 diagonal-star: 80 runs, 0 failures',
            'pass  identity-2 compose-ball: 80 runs, 0 failures',
            'pass  identity-3 image-meet: 20560 runs, 0 failures',
            'pass  identity-4 image-containment: 20560 runs, 0 failures',
            'pass  identity-5 pushforward-ball: 80 runs, 0 failures',
            'pass  identity-6 image-union: 80 runs, 0 failures',
            'pass  ext-a boundary-trace: 40 runs, 0 failures',
            'pass  ext-b full-and-empty: 3 runs, 0 failures',
            'pass  ext-c monotone-iff: 1056 runs, 0 failures',
            'pass  ext-d meet-equivalence: 1656 runs, 0 failures',
            'pass  ext-e empty-iff: 40 runs, 0 failures',
            'pass  ext-f intersection-exact: 1076 runs, 0 failures',
            'pass  image-family multiplicity chain: 100 runs, 0 failures',
            'pass  preimage multiplicity bound: 50 runs, 0 failures',
            'pass  shrinking surjection bound: 50 runs, 0 failures',
            'pass  star-expansion multiplicity chain: 40 runs, 0 failures',
            'pass  star-expansion refined by beta: 40 runs, 0 failures',
            'pass  ball-shrink multiplicity bound: 40 runs, 0 failures',
        ],
    ),
    2: (
        [
            (
                '6a768cdaed18e3bba939325b3245577656d7c05eead8e566279798a0d05741a5',
                3,
                '4a5b0437287f57ba93687b56e77ff01be68cbb04b37eace2539538d822ebe9b0',
            ),
            (
                '6b99935aa69faddf6ca85af955e94c52b70411f4f2218dcd5d99351377a1398a',
                1,
                'b45aa1fe7ce789e577967e45fd66debb47e722166d377f77f078ebe7c6baf58c',
            ),
            (
                '67100fd433403574eed0c23809035e35e827711404230ee9daac59db994fcf7d',
                20,
                '009fcab3b1d17d00a1918e3ef9d4ec90cf5dbc795ef8122b91c0b91a74bb00bd',
            ),
            (
                '3f46f2c7490690cf7f3f35f753f1f576d546092f1fa2e0572ea2cd445c58c6df',
                200,
                '46479ed2ebd8354b3c776c781b7d4ee0063acf30ed263df59ca39e9bc836c9b4',
            ),
            (
                '27f82f042f14251082e7a46ee7c8a4312d8ed9c4c664cad2b5540c2f060b8080',
                40,
                'e81a9fc2c0a1ec9126d75c9aefd129df35f100db7cfd75e8c1d7807e73310bf7',
            ),
            (
                '273f6501f7d1f322c3086e494a5628fb1c93134fd63bf88cc853d0aa6f8bcea8',
                40,
                'f2287fc2cef4731697317e6b97342fb29935e0d26c2f2f8a419dd7f942132583',
            ),
        ],
        [
            'pass  identity-1 diagonal-star: 80 runs, 0 failures',
            'pass  identity-2 compose-ball: 80 runs, 0 failures',
            'pass  identity-3 image-meet: 20560 runs, 0 failures',
            'pass  identity-4 image-containment: 20560 runs, 0 failures',
            'pass  identity-5 pushforward-ball: 80 runs, 0 failures',
            'pass  identity-6 image-union: 80 runs, 0 failures',
            'pass  ext-a boundary-trace: 40 runs, 0 failures',
            'pass  ext-b full-and-empty: 3 runs, 0 failures',
            'pass  ext-c monotone-iff: 1056 runs, 0 failures',
            'pass  ext-d meet-equivalence: 1656 runs, 0 failures',
            'pass  ext-e empty-iff: 40 runs, 0 failures',
            'pass  ext-f intersection-exact: 1076 runs, 0 failures',
            'pass  image-family multiplicity chain: 100 runs, 0 failures',
            'pass  preimage multiplicity bound: 50 runs, 0 failures',
            'pass  shrinking surjection bound: 50 runs, 0 failures',
            'pass  star-expansion multiplicity chain: 40 runs, 0 failures',
            'pass  star-expansion refined by beta: 40 runs, 0 failures',
            'pass  ball-shrink multiplicity bound: 40 runs, 0 failures',
        ],
    ),
    7: (
        [
            (
                'dccfc58c6ed16eb2e1b4c90f95f27b5e30667a1250543bf546d077ae2cecab43',
                3,
                '2d61e157b692d42a658e441fbe2b159c2e398343d8722d042a2116831b676ab7',
            ),
            (
                '66a21fccc02ee1ddbb7354035aa75bbb58558818a401cfd2edcb8865b238fa90',
                1,
                '2e7b712c7f5a31d6facba09fdc7abf71a957b1f4570c386a1f654b0f05209f67',
            ),
            (
                'c5c0dcbc8a6553d4480d86cc8f1a6246ae6ae516e1f9f55c3332bba860538a19',
                20,
                'd5dcf95cc948835b1a42dd5ba2ed683247e14943826e2b6fcd272f6740e2f5ed',
            ),
            (
                '5f3beb2406abf250a3d0ce5e17a3b958da0af34d5d0f1546cb24d5afbc40f733',
                200,
                '95518ce02907b250fb6a9efad56a0921c00f47d2a1076457a8baa75675e94a1d',
            ),
            (
                '00e90a515fc5800af6a76f8da29e8ebeea621268bd721f25106f9d6ec6420f7f',
                40,
                '101ca24d89df6663f8207b6e4dbd42661e7ffba451b4daf63fab256405953847',
            ),
            (
                'ac34cf725c1daae112e5e69bdb03837dc633cf8a4e93e2135086dbe8d8098dbc',
                40,
                '9c659578b5ba10acc743420fc749c91604e3c672cb041d702c9aea305066d8ab',
            ),
        ],
        [
            'pass  identity-1 diagonal-star: 80 runs, 0 failures',
            'pass  identity-2 compose-ball: 80 runs, 0 failures',
            'pass  identity-3 image-meet: 20560 runs, 0 failures',
            'pass  identity-4 image-containment: 20560 runs, 0 failures',
            'pass  identity-5 pushforward-ball: 80 runs, 0 failures',
            'pass  identity-6 image-union: 80 runs, 0 failures',
            'pass  ext-a boundary-trace: 40 runs, 0 failures',
            'pass  ext-b full-and-empty: 3 runs, 0 failures',
            'pass  ext-c monotone-iff: 1056 runs, 0 failures',
            'pass  ext-d meet-equivalence: 1656 runs, 0 failures',
            'pass  ext-e empty-iff: 40 runs, 0 failures',
            'pass  ext-f intersection-exact: 1076 runs, 0 failures',
            'pass  image-family multiplicity chain: 100 runs, 0 failures',
            'pass  preimage multiplicity bound: 50 runs, 0 failures',
            'pass  shrinking surjection bound: 50 runs, 0 failures',
            'pass  star-expansion multiplicity chain: 40 runs, 0 failures',
            'pass  star-expansion refined by beta: 40 runs, 0 failures',
            'pass  ball-shrink multiplicity bound: 40 runs, 0 failures',
        ],
    ),
}


class _Recording(np.random.Generator):
    """A generator that keeps every 2-D array its ``uniform`` returns, in draw order."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.draws = []

    def uniform(self, *args, **kwargs):
        out = super().uniform(*args, **kwargs)
        if np.ndim(out) == 2:
            self.draws.append(out)
        return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pack_digest(pack) -> bytes:
    head = json.dumps([pack.n_points, sorted(pack.boundary)]).encode()
    return head + np.ascontiguousarray(pack.dist).tobytes()


def sweep_record(seed, monkeypatch):
    gens, packs = [], []

    def default_rng(seed):
        gens.append(_Recording(np.random.PCG64(seed)))
        return gens[-1]

    real_init = DiscretePack.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        packs.append(self)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    monkeypatch.setattr(DiscretePack, "__init__", init)
    summary = cc.verify_suite(seed, SIZES)
    monkeypatch.undo()

    by_coords = {}
    for pack in packs:
        coords = pack.meta.get("coords")
        if coords is not None:
            by_coords.setdefault(np.asarray(coords, dtype=float).tobytes(), pack)
    record = []
    for g in gens:
        state = _sha(json.dumps(g.bit_generator.state, sort_keys=True).encode())
        drawn = [by_coords[d.tobytes()] for d in g.draws if d.tobytes() in by_coords]
        record.append((state, len(drawn), _sha(b"".join(_sha(_pack_digest(p)).encode() for p in drawn))))
    return record, summary.lines()


@pytest.mark.parametrize("seed", [0, 2, 7])
def test_the_sweeps_draw_the_pinned_instances(seed, monkeypatch):
    record, lines = sweep_record(seed, monkeypatch)
    assert (record, lines) == PINS[seed]
