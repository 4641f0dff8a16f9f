"""Reproducible stream contract."""

import contextlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

import chshkit
from chshkit import PHOTON_OPTIMAL_QUAD, CorrelationLaw, ResortPolicy, RngSpec, cli
from chshkit import generate_subruns, resort_cascade, rng
from helpers import feasible_dataset, reference_generator

U64 = st.integers(0, 2**64 - 1)


def test_same_spec_same_output():
    a = RngSpec(42).generator().random(16)
    b = RngSpec(42).generator().random(16)
    assert np.array_equal(a, b)


def test_generator_restarts_stream():
    spec = RngSpec(7, stream=3)
    first = spec.generator().random(8)
    again = spec.generator().random(8)
    assert np.array_equal(first, again)


def test_different_seed_or_stream_differ():
    base = RngSpec(1).generator().random(16)
    assert not np.array_equal(base, RngSpec(2).generator().random(16))
    assert not np.array_equal(base, RngSpec(1, stream=1).generator().random(16))


def test_derive_is_deterministic_and_order_free():
    spec = RngSpec(9)
    assert spec.derive(5) == spec.derive(5)
    # Deriving stream 3 does not depend on whether stream 2 was derived first.
    spec.derive(2)
    assert spec.derive(3) == RngSpec(9).derive(3)


def test_derived_streams_are_distinct():
    spec = RngSpec(11)
    children = [spec.derive(i) for i in range(64)]
    assert len({c.stream for c in children}) == 64
    assert all(c.seed == spec.seed for c in children)
    draws = [c.generator().random(4).tobytes() for c in children]
    assert len(set(draws)) == 64


def test_nested_derivation_no_trivial_collision():
    spec = RngSpec(13)
    grid = {spec.derive(i).derive(j).stream for i in range(16) for j in range(16)}
    assert len(grid) == 256


def test_seed_masked_to_64_bits():
    assert RngSpec(-1).seed == 2**64 - 1
    assert RngSpec(2**64 + 5).seed == 5
    RngSpec(-1).generator().random(1)  # must not raise


@pytest.mark.parametrize(
    "seed, stream",
    [(1.5, 0), (1.0, 0), (True, 0), (np.True_, 0), ("1", 0), (None, 0), (1, 2.0), (1, False)],
)
def test_seed_and_stream_must_be_integers(seed, stream):
    with pytest.raises(ValueError, match="must be integers"):
        RngSpec(seed, stream)


def test_numpy_integers_are_accepted():
    spec = RngSpec(np.int64(-1), np.uint64(7))
    assert spec == RngSpec(2**64 - 1, 7)
    assert type(spec.seed) is int and type(spec.stream) is int


@pytest.mark.parametrize("index", [1.5, 1.0, True, np.True_, "1", None])
def test_derive_index_must_be_an_integer(index):
    with pytest.raises(ValueError, match="index must be an integer"):
        RngSpec(3).derive(index)


def test_derive_accepts_numpy_integers():
    assert RngSpec(3).derive(np.int64(1)) == RngSpec(3).derive(1)
    assert RngSpec(3).derive(np.uint64(2**64 - 1)) == RngSpec(3).derive(-1)


@hyp_settings(max_examples=200, deadline=None)
@given(stream=U64, index=st.integers(-2**70, 2**70))
@example(stream=0, index=-1)
@example(stream=5, index=-2**70)
@example(stream=5, index=2**64 - 1)
def test_derive_index_is_reduced_mod_2_64(stream, index):
    spec = RngSpec(3, stream)
    assert spec.derive(index) == spec.derive(index + 2**64) == spec.derive(index % 2**64)


def test_derived_spec_equals_a_constructed_one():
    child = RngSpec(-3, 2**64 + 9).derive(-4)
    assert child == RngSpec(child.seed, child.stream)
    assert hash(child) == hash(RngSpec(child.seed, child.stream))
    assert type(child.stream) is int and 0 <= child.stream < 2**64


@hyp_settings(max_examples=100, deadline=None)
@given(seed=U64, stream=U64, n=st.integers(0, 40))
def test_generator_matches_the_philox_key_construction(seed, stream, n):
    spec = RngSpec(seed, stream)
    got, ref = spec.generator(), reference_generator(spec)
    assert repr(got.bit_generator.state) == repr(ref.bit_generator.state)
    assert np.array_equal(got.random(n), ref.random(n))
    assert np.array_equal(got.integers(0, 2, size=n, dtype=np.int8),
                          ref.integers(0, 2, size=n, dtype=np.int8))
    assert np.array_equal(got.uniform(0.0, np.pi, size=n), ref.uniform(0.0, np.pi, size=n))
    x, y = np.arange(n), np.arange(n)
    got.shuffle(x)
    ref.shuffle(y)
    assert np.array_equal(x, y)
    assert np.array_equal(got.permutation(n), ref.permutation(n))
    assert repr(got.bit_generator.state) == repr(ref.bit_generator.state)


def _unmix(z: int) -> int:
    """The inverse of ``rng._splitmix64``: each xorshift and odd multiply undone."""
    def unshift(y, k):
        x = y
        for _ in range(64 // k):
            x = y ^ (x >> k)
        return x

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return (unshift(z, 30) - 0x9E3779B97F4A7C15) % 2**64


@hyp_settings(max_examples=100, deadline=None)
@given(seed=U64, stream=U64, index=st.integers(1, 4), words=st.integers(0, 7),
       halves=st.integers(0, 4), n=st.integers(0, 40))
@example(seed=0, stream=0, index=1, words=0, halves=0, n=40)
@example(seed=2**64 - 1, stream=2**64 - 1, index=2, words=3, halves=1, n=40)
def test_rekeyed_stream_draws_as_a_fresh_one(seed, stream, index, words, halves, n):
    # The parent whose child ``index`` is keyed [seed, stream].
    parent = RngSpec(seed, _unmix(_unmix(stream) ^ index))
    assert parent.derive(index) == RngSpec(seed, stream)
    children = rng._derived_generators(parent)
    for _ in range(index):
        # Leave each earlier child half-consumed: a partial word buffer, and
        # a half word from an odd number of 32-bit draws.
        g = next(children)
        g.bit_generator.random_raw(words)
        g.integers(0, 2**32, size=2 * halves + 1, dtype=np.uint32)
        if g.bit_generator.state["buffer_pos"] == 4:
            g.bit_generator.random_raw(1)
        state = g.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    got, ref = next(children), RngSpec(seed, stream).generator()
    assert got is g
    assert repr(got.bit_generator.state) == repr(ref.bit_generator.state)
    assert np.array_equal(got.integers(0, 2, size=n, dtype=np.int8),
                          ref.integers(0, 2, size=n, dtype=np.int8))
    assert np.array_equal(got.bit_generator.random_raw(n), ref.bit_generator.random_raw(n))
    assert np.array_equal(got.random(n), ref.random(n))
    x, y = np.arange(2 * n, dtype=np.int64), np.arange(2 * n, dtype=np.int64)
    for part in (slice(0, n), slice(n, None)):
        got.shuffle(x[part])
        ref.shuffle(y[part])
    assert np.array_equal(x, y)
    assert repr(got.bit_generator.state) == repr(ref.bit_generator.state)


@contextlib.contextmanager
def _builds():
    """The generators built in the block, counted by their seed sources."""
    built, key_sequence = [], rng._key_sequence

    def counted(seed, stream):
        built.append((seed, stream))
        return key_sequence(seed, stream)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "_key_sequence", counted)
        yield built


class TestGeneratorBuilds:
    """Each call builds one generator however many streams it draws."""

    def test_uniform_random_cascade_builds_one(self):
        data, policy = feasible_dataset(RngSpec(1), 20), ResortPolicy.uniform_random(RngSpec(2))
        with _builds() as built:
            resort_cascade(data, policy)
        assert built == [(2, RngSpec(2).derive(0).stream)]

    def test_stable_cascade_builds_none(self):
        data = feasible_dataset(RngSpec(1), 20)
        with _builds() as built:
            resort_cascade(data)
        assert built == []

    def test_generate_subruns_builds_one(self):
        with _builds() as built:
            generate_subruns(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS, 5, RngSpec(3))
        assert built == [(3, RngSpec(3).derive(0).stream)]

    def test_sweep_builds_one_per_row(self, tmp_path):
        with _builds() as built:
            assert cli.main(["sweep", "--steps", "16", "--n-per", "2", "--seed", "4",
                             "--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(built) == 17


def _python_with_src(code: str, stdin: bytes = b"") -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(chshkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, check=True)
    return proc.stdout.decode()


def test_pickled_generator_resumes_in_a_fresh_process():
    g = RngSpec(2**64 - 1, 5).generator()
    g.random(3)
    out = _python_with_src(
        "import pickle, sys; print(repr(pickle.load(sys.stdin.buffer).random()))",
        pickle.dumps(g),
    )
    assert float(out) == g.random()


def test_import_leaves_numpy_random_unloaded():
    out = _python_with_src(
        "import sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "import chshkit\n"
        "print(before, 'numpy.random' in sys.modules)"
    )
    before, after = out.split()
    if before == "True":
        pytest.skip("this numpy loads numpy.random on import")
    assert after == "False"


def test_cli_import_leaves_unused_stdlib_unloaded():
    # Records are plain classes, Fraction and json load on demand: a CLI
    # process that needs none of them pays for none of them.
    unused = ("dataclasses", "fractions", "decimal", "json")
    out = _python_with_src(
        "import sys, numpy\n"
        f"unused = [m for m in {unused!r} if m not in sys.modules]\n"
        "import chshkit.cli\n"
        "print(len(unused), *[m for m in unused if m in sys.modules])"
    )
    checked, *loaded = out.split()
    if checked == "0":
        pytest.skip("this numpy loads every module the test checks")
    assert loaded == []


def test_spec_is_a_value():
    assert RngSpec(3, 4) == RngSpec(3, 4)
    assert RngSpec(3, 4) != RngSpec(3, 5)
    assert len({RngSpec(3, 4), RngSpec(3, 4)}) == 1
