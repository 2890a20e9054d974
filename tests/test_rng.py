import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from weakerr import rng

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


def philox4x32_10_reference(ctr, key):
    """Straight-line scalar transcription of the round function."""
    c = list(ctr)
    k = list(key)
    for _ in range(10):
        p0 = (0xD2511F53 * c[0]) & MASK64
        p1 = (0xCD9E8D57 * c[2]) & MASK64
        c = [
            (p1 >> 32) ^ c[1] ^ k[0],
            p1 & MASK32,
            (p0 >> 32) ^ c[3] ^ k[1],
            p0 & MASK32,
        ]
        k = [(k[0] + 0x9E3779B9) & MASK32, (k[1] + 0xBB67AE85) & MASK32]
    return tuple(c)


def philox4x32_10(c0, c1, c2, c3, k0, k1):
    """The generator's rounds on uint32 counter words (arrays welcome) and scalar key words."""
    words = [np.asarray(c, dtype=np.uint32).astype(np.uint64) for c in (c0, c1, c2, c3)]
    out = rng._philox_rounds(*words, int(k0) & MASK32, int(k1) & MASK32)
    return tuple(w.astype(np.uint32) for w in out)


class TestPhilox:
    def test_known_answer_vectors(self):
        # Random123 kat_vectors, philox4x32 with 10 rounds
        cases = [
            ((0, 0, 0, 0), (0, 0),
             (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
            ((MASK32,) * 4, (MASK32,) * 2,
             (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
            ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
             (0xA4093822, 0x299F31D0),
             (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
        ]
        for ctr, key, want in cases:
            got = tuple(int(v) for v in philox4x32_10(*ctr, *key))
            assert got == want
            assert philox4x32_10_reference(ctr, key) == want

    def test_vectorized_matches_scalar_reference(self):
        gen = np.random.default_rng(99)
        ctrs = gen.integers(0, 2**32, size=(50, 4), dtype=np.uint64)
        key = tuple(int(v) for v in gen.integers(0, 2**32, size=2))
        got = philox4x32_10(ctrs[:, 0], ctrs[:, 1], ctrs[:, 2], ctrs[:, 3], *key)
        for i in range(50):
            want = philox4x32_10_reference(tuple(int(v) for v in ctrs[i]), key)
            assert tuple(int(w[i]) for w in got) == want


def normals(seed, path_indices, n_steps):
    """Standard normals: increments with dt = 1.0, since z * 1.0 is exact."""
    return rng.gaussian_increments(seed, path_indices, n_steps, 1.0)


class TestStandardNormals:
    def test_deterministic(self):
        a = normals(42, np.arange(8), 33)
        b = normals(42, np.arange(8), 33)
        assert np.array_equal(a, b)

    def test_distinct_paths_and_seeds(self):
        block = normals(42, [0, 1], 64)
        assert not np.array_equal(block[0], block[1])
        other = normals(43, [0], 64)[0]
        assert not np.array_equal(block[0], other)

    def test_path_rows_independent_of_batch_layout(self):
        whole = normals(7, np.arange(10), 16)
        for i in range(10):
            assert np.array_equal(whole[i], normals(7, [i], 16)[0])

    def test_all_finite_and_reasonable_range(self):
        z = normals(0, np.arange(64), 512)
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(z)) < 9.0  # |z| > 9 has probability ~1e-19 per draw

    def test_moments(self):
        z = normals(11, np.arange(2048), 512).ravel()
        n = z.size
        assert abs(z.mean()) <= 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)
        kurt = np.mean(z**4)
        assert abs(kurt - 3.0) <= 4.0 * math.sqrt(96.0 / n)

    def test_odd_step_count(self):
        # exercises the half-block tail
        z = normals(5, [3], 7)
        assert z.shape == (1, 7)
        z9 = normals(5, [3], 9)
        assert np.array_equal(z9[0, :7], z[0])

    @pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), 2**64, -1, "7"])
    def test_seed_must_be_a_64_bit_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            normals(seed, [0], 4)

    @pytest.mark.parametrize("paths", [np.array([3, -1], dtype=np.int64), [-1], [0.7],
                                       np.array([1.0, 2.0]), [2**64, 0],
                                       [[0, 1], [2, 3]]])
    def test_path_indices_must_be_nonnegative_integers(self, paths):
        with pytest.raises(ValueError, match="path_indices"):
            normals(0, paths, 4)

    @pytest.mark.parametrize("n_steps", [0, -3, 2.5, 4.0])
    def test_n_steps_must_be_a_positive_integer(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            normals(0, [0], n_steps)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.25])
    def test_dt_must_be_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="dt"):
            rng.gaussian_increments(0, [0], 4, dt)

    def test_integer_inputs_of_any_width_accepted(self):
        want = normals(3, [0, 2**63 + 1], 4)
        for seed in (np.uint64(3), np.int32(3), True + 2):
            for paths in (np.array([0, 2**63 + 1], dtype=np.uint64),
                          [np.uint64(0), np.uint64(2**63 + 1)]):
                assert np.array_equal(normals(seed, paths, np.int64(4)), want)
        assert normals(3, np.array([5], dtype=np.int8), 4).shape == (1, 4)
        assert normals(3, 5, 4).shape == (1, 4)
        assert normals(3, [], 4).shape == (0, 4)


class TestGaussianIncrements:
    def test_variance_within_one_percent(self):
        # 2^20 draws: 4-sigma band for the sample variance is ~0.55%
        dt = 1.0 / 256
        z = rng.gaussian_increments(123, np.arange(4096), 256, dt)
        assert z.shape == (4096, 256)
        assert abs(z.var() / dt - 1.0) <= 0.01

    def test_scaling(self):
        a = normals(9, [4], 16)[0]
        b = rng.gaussian_increments(9, [4], 16, 0.25)[0]
        assert np.allclose(b, 0.5 * a, rtol=0, atol=0)

    def test_working_memory_is_six_word_arrays_and_the_chunk_buffer(self):
        # One warm 16384 x 512 draw: beside its output, one chunk's four
        # counters (refilled for every chunk), the rounds' two products and
        # the chunk buffer (two word arrays), about 8.5 word arrays in all.
        # Counters made anew for each chunk, while the last chunk's outputs
        # are still bound, read about 12.5.
        paths = np.arange(1 << 14, dtype=np.uint64)
        rng.gaussian_increments(1, paths[:1], 512, 1 / 512)  # imports scipy.special
        word_bytes = rng._CHUNK_BLOCKS * 8  # 128 rows x 256 blocks a chunk
        tracemalloc.start()
        try:
            out = rng.gaussian_increments(1, paths, 512, 1 / 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = (peak - out.nbytes) / word_bytes
        assert extra <= 9, f"{extra:.2f} word arrays beside the output"


# Stream pins, taken before the generator was chunked: SHA-256 of the
# ``gaussian_increments`` bytes at dt = 1.0 (the standard normals) and at
# dt = PIN_DT, for row counts of 1 and one below, at and above the rows of
# one 2^14-block chunk, with path indices across 2^32 and a seed above 2^63.
# (64, 2500), taken with 2^14-block chunks, spans three 2^15-block chunks of
# 1024 rows at the shipped constants and ends in a partial chunk of 452 rows.
# Chunk sizes of 1 and 3 blocks must give the same bytes; (1, 100) makes 34
# chunks of up to three rows.
PIN_SEED = 2**63 + 2**32 + 7
PIN_DT = 0.3
STREAM_PINS = {
    (1, 1): ("548dd4c323a0263fc5511b7f9e44d76780ab31ef7b0a59b49f43f49305077e04",
             "a56bfde7ec18edd718456658061982efb5b564a3f3e2e6b5f0d730de72697406"),
    (1, 100): ("214137552956f8202d26460e250dd75633f0801035472ee73f83f6078d026235",
               "b019b2dd5bf4f1305939781e792e89e6fb39708c3b7c10011b04d8e45df92fa2"),
    (1, 16383): ("ab54409039695292138e6b3b13fa5d0b67de69e68858803f0a4fada059083d46",
                 "e97796cbab96d4d29bf2d66a372380f6b022a4669b3de5eef2d5c926a7169065"),
    (1, 16384): ("239a6abb19709741d51733d68a1b70d8e328834b38181f043f580adfb20075c5",
                 "ca5051a05bde48ced8c3dd1ac971e292744024ef7e610a877d52e137cab0d662"),
    (1, 16385): ("9c46aa73b7323d71d3f2e0f1d958216fe82cecde970a17212674f98e5e664fc7",
                 "e3383bdd251dfb32b42219ac67a653aed8898ef4562ccf88533dcbc702fea3c3"),
    (7, 1): ("bcc0d251982e2b04191af9a0a1f38fabe4de9854fa7c5d4b789a5ac47d90c890",
             "a21eb57e4c2e0879ac1bb50d0a853464c7cec6454dea605fd20c5411ab1f8439"),
    (7, 4095): ("6657e5eb9fc09383d6939f3f3a111405de2305cb655f04c01195994b782103e9",
                "b2e34315763084b0473f5aeeeb787d739f14316e5f22156dd64f69ec70c12ab5"),
    (7, 4096): ("2ae10086bfdaf8f7d638c262a616ebd0bf07912353393da333dcb82c808e9b08",
                "dc27b53de3800bbc58123b503208dc3ce111125e7245eade7e7cce2b20925ae5"),
    (7, 4097): ("1eee7d688842561c9c61dcf7a34deb8255836416288a59eb1096da109f981d58",
                "4dd28dae5d1ef6473cc9969da8ff31b8c67c8724683ffadc39d49e4b90d5534a"),
    (33, 1): ("19233342954248031d1d0e16b19421acc056ce6a8f0f9ad5f1a3fe0055e07237",
              "2f37b1042a11c477283df3e656b5070dddb20bf8b22ccd8d41f067731eb8555c"),
    (33, 962): ("2e3afe38feba2796956f5434839585241641d031a5a1a813d637fc01c1617a09",
                "99e2dde990926035619926c6135ada48273a7408de897601332ed68f46fdedc6"),
    (33, 963): ("be26391a776f55ee2f8f8ed45cfdeb5b2940b2fe6e4b8b19ac828c2e38ccd75c",
                "61b922aadcc67a7a09d40b8b2e6cbdf635b5117e6391983616305a51bc8d5b0b"),
    (33, 964): ("1c4254a637bab39493e75d75382bfd3123e6dec477cf44a6b008427497c05888",
                "a2263690636078432c0f421e9b0672eeb4c5ef1b339e9e8e91c00488e473ebe9"),
    (64, 2500): ("d15a7eb165148cbbedf488a86f230705253173a361cd0ac4fb3f4baa5cf817f9",
                 "31725cfc5fc9041be5f4335f38b6680d603994eb24f4132de34b776e9bf9a74d"),
    (512, 1): ("e06235c546b4d9111377f8fd039c76a7741efd81b883bf256767aeff78cb7c5d",
               "c380a3eaee3da529173ddd2b7a5896a6a0e03ad9caf2079e392394ffb9ca6da8"),
    (512, 63): ("f38d90e30bbc9f4c70fc687147a2a7e00e73065074f395057e347b433bfd1692",
                "fd3aff107c55424ef4752072c4115c82b290579ea1ed8532377e2a0bc38acedd"),
    (512, 64): ("30baad66b259b79984bf16c93ceb02f04e74cb5709bdb35650a7fef4030ef1cd",
                "e1c6d69714a5a2317c7ce2df7d2fb4619ee663b49a00230ce6dcb1da11c74642"),
    (512, 65): ("95d14f385af168de1486bed38b1aeb216a7a6d333fbf3efeb35af0a8ac33074a",
                "dd3b7a4d5093dc24a71722e81b9da6ca3fbfad0d73d8ac273a8f3060de83d3f8"),
    (513, 1): ("7972de34a2002b8524f9681a2aff732b5cbfee60d1e56a25823d660cef423328",
               "ac37401e261f18af62aa04a947c3868ed3bf54cb6d92d4401f5fc301560dcdd3"),
    (513, 62): ("e832f83e4f0e666ed83175aacc932b1a5f964713ef4e8f6f9dba440a868855af",
                "c0b914587f26ed350a607d26dce6de2c1102d65d9bde3046a383c61d34c6f50b"),
    (513, 63): ("ea1305a0e46e958832ef69b9385fd7fd3f15cda7457770c0bc567a55700090b3",
                "7ee33972acbd774d53df20f328cf6c33c1a6c31d7ac7d99e5e5a71260fc86872"),
    (513, 64): ("7a8de2273313a5ebb5246e977c156cdaad1a6ebcffe9b6801977a0c787efd887",
                "c6f4978f811855b434ce0575202d196776f525aa32f8ad543fcaabea505ee504"),
}


def _pin_paths(rows):
    return np.uint64(2**32 - 2) + np.uint64(3) * np.arange(rows, dtype=np.uint64)


def _stream_digests(n_steps, rows):
    paths = _pin_paths(rows)
    z = normals(PIN_SEED, paths, n_steps)
    dw = rng.gaussian_increments(PIN_SEED, paths, n_steps, PIN_DT)
    assert z.shape == dw.shape == (rows, n_steps)
    assert z.flags.f_contiguous and dw.flags.f_contiguous
    return (hashlib.sha256(z.tobytes()).hexdigest(),
            hashlib.sha256(dw.tobytes()).hexdigest())


class TestStreamPins:
    @pytest.mark.parametrize("n_steps, rows", sorted(STREAM_PINS))
    def test_pinned_bytes(self, n_steps, rows):
        assert _stream_digests(n_steps, rows) == STREAM_PINS[n_steps, rows]

    @pytest.mark.parametrize("chunk", [1, 3, 2**20])
    @pytest.mark.parametrize("n_steps, rows", [(1, 100), (7, 1), (33, 964),
                                               (512, 65), (513, 62)])
    def test_stream_independent_of_chunk_size(self, monkeypatch, chunk, n_steps, rows):
        monkeypatch.setattr(rng, "_CHUNK_BLOCKS", chunk)
        assert _stream_digests(n_steps, rows) == STREAM_PINS[n_steps, rows]

    @pytest.mark.parametrize("chunk_rows", [2, 5, 7, 13, 32, 61])
    @pytest.mark.parametrize("n_steps, rows", [(1, 100), (33, 964), (513, 62)])
    def test_stream_independent_of_where_the_last_chunk_ends(self, monkeypatch,
                                                             chunk_rows, n_steps, rows):
        # Chunks of several rows reuse one buffer, and the last one fills only
        # its leading rows: 1 to 481 rows, or none left over at 2 rows a chunk.
        monkeypatch.setattr(rng, "_CHUNK_BLOCKS", chunk_rows * ((n_steps + 1) // 2))
        assert _stream_digests(n_steps, rows) == STREAM_PINS[n_steps, rows]

    @pytest.mark.parametrize("chunk", [1, 3, 2**20])
    @pytest.mark.parametrize("n_steps", [1, 33, 512])
    def test_zero_rows(self, monkeypatch, chunk, n_steps):
        monkeypatch.setattr(rng, "_CHUNK_BLOCKS", chunk)
        dw = rng.gaussian_increments(PIN_SEED, [], n_steps, PIN_DT)
        assert dw.shape == (0, n_steps) and dw.flags.f_contiguous
        assert dw.tobytes() == b""


class TestWindows:
    """A draw of ``width`` steps from an even ``first_step`` is the columns
    first_step .. first_step + width - 1 of the whole draw, byte for byte."""

    @pytest.mark.parametrize("chunk", [3, 2**15])
    @pytest.mark.parametrize("n_steps", [7, 12, 33])
    def test_every_even_window_is_the_whole_draws_columns(self, monkeypatch, chunk, n_steps):
        # odd n_steps: the last window of one step drops its block's second word
        monkeypatch.setattr(rng, "_CHUNK_BLOCKS", chunk)
        paths = _pin_paths(9)
        whole = rng.gaussian_increments(PIN_SEED, paths, n_steps, PIN_DT)
        for first in range(0, n_steps, 2):
            for width in range(1, n_steps - first + 1):
                window = rng.gaussian_increments(PIN_SEED, paths, width, PIN_DT,
                                                 first_step=first)
                assert window.flags.f_contiguous
                assert window.tobytes() == whole[:, first:first + width].tobytes(), \
                    (first, width)

    def test_windows_of_the_pinned_stream(self):
        # 513 steps in windows of 64 (the last of one step) rebuild the pin
        paths = _pin_paths(62)
        windows = [rng.gaussian_increments(PIN_SEED, paths, min(64, 513 - k), PIN_DT,
                                           first_step=k) for k in range(0, 513, 64)]
        digest = hashlib.sha256(np.hstack(windows).tobytes()).hexdigest()
        assert digest == STREAM_PINS[513, 62][1]

    def test_the_last_steps_are_the_last_block_of_the_counter_word(self):
        # the block index step // 2 fills one 32-bit counter word, so steps
        # 2**33 - 2 and 2**33 - 1 are block 2**32 - 1, the stream's last
        from scipy.special import ndtri
        assert rng.STEP_LIMIT == 2**33
        last = rng.gaussian_increments(0, [0, 1], 2, 1.0, first_step=rng.STEP_LIMIT - 2)
        y = philox4x32_10_reference((MASK32, 1, 0, 0), (0, 0))  # path 1
        words = (y[0] << 32 | y[1], y[2] << 32 | y[3])
        want = [float(ndtri((float(w >> 11) + 0.5) * 2.0**-53)) for w in words]
        assert last[1].tolist() == want

    @pytest.mark.parametrize("first_step, n_steps", [(2**33, 2), (2**33 - 2, 3), (0, 2**33 + 1)])
    def test_steps_past_the_counter_word_are_refused(self, first_step, n_steps):
        # they once wrapped the block counter, off the documented stream
        with pytest.raises(ValueError, match="past the generator's last step 8589934591"):
            rng.gaussian_increments(0, [0, 1], n_steps, 1.0, first_step=first_step)

    @pytest.mark.parametrize("first_step", [1, 7, -2, 2.0, None])
    def test_first_step_must_be_even(self, first_step):
        with pytest.raises(ValueError, match="first_step must be an even nonnegative integer"):
            rng.gaussian_increments(PIN_SEED, [0], 4, PIN_DT, first_step=first_step)


@pytest.mark.parametrize("n_steps, rows", [(64, 16384), (513, 300)])
def test_concurrent_draws_keep_their_bytes(n_steps, rows):
    # Two threads enter the generator together; each must get the bytes a
    # serial call gives, so no scratch space may be shared between calls.
    calls = [(PIN_SEED, _pin_paths(rows), PIN_DT),
             (7, np.arange(rows, 2 * rows, dtype=np.uint64), 1.0)]
    serial = [rng.gaussian_increments(seed, paths, n_steps, dt).tobytes()
              for seed, paths, dt in calls]
    barrier = threading.Barrier(len(calls), timeout=60)
    results = [None] * len(calls)

    def draw(i):
        seed, paths, dt = calls[i]
        barrier.wait()
        results[i] = rng.gaussian_increments(seed, paths, n_steps, dt).tobytes()

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


# Two threads make the first draws of a fresh interpreter together, so that
# both reach the generator's import of scipy.special at once: the first
# batches of a Monte Carlo pool do this.  Prints the SHA-256 of each draw.
FIRST_DRAWS = """
import hashlib, sys, threading
import numpy as np
from weakerr import rng
assert "scipy.special" not in sys.modules
seed, rows, n_steps = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
paths = np.uint64(2**32 - 2) + np.uint64(3) * np.arange(rows, dtype=np.uint64)
dts = (1.0, float(sys.argv[4]))
barrier = threading.Barrier(len(dts), timeout=60)
digests = [None] * len(dts)

def draw(i):
    barrier.wait()
    z = rng.gaussian_increments(seed, paths, n_steps, dts[i])
    digests[i] = hashlib.sha256(z.tobytes()).hexdigest()

threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(dts))]
sys.setswitchinterval(1e-5)
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
assert not any(t.is_alive() for t in threads)
print(" ".join(digests))
"""


@pytest.mark.parametrize("n_steps, rows", [(64, 2500), (1, 16384)])
def test_concurrent_first_draws_keep_their_bytes(tmp_path, n_steps, rows):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rng.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_DRAWS, str(PIN_SEED), str(rows), str(n_steps),
         repr(PIN_DT)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert tuple(proc.stdout.split()) == STREAM_PINS[n_steps, rows]
