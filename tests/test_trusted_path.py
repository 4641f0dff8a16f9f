"""Validation happens once, at the boundary.

``OutcomeSequence(...)`` checks and copies whatever a caller hands it.
The arrays chshkit builds itself (generator output, split masks, ingest
codes, trimmed slices) skip both through ``OutcomeSequence._of``; these
tests check that what those producers return is still read-only int8
+1/-1 data that no caller can write through another array.
"""

import io
import math

import numpy as np
import pytest

from chshkit import (
    Angle,
    CorrelationLaw,
    OutcomeSequence,
    PHOTON_OPTIMAL_QUAD,
    RngSpec,
    SubRunDataset,
    generate_subruns,
    ingest_counterfactual_csv,
    ingest_csv,
    lhv_generate,
    qm_generate,
    split_random,
    trim_to_shortest,
    write_counterfactual_csv,
    write_subrun_csv,
)
from helpers import pairs, random_counterfactual


def _sides(data) -> list[np.ndarray]:
    if isinstance(data, SubRunDataset):
        return [side.values for p in data.lists for side in (p.a, p.b)]
    return [s.values for s in data.sequences]


def _assert_frozen_outcomes(arrays: list[np.ndarray], writable: list[np.ndarray]) -> None:
    """Each array is read-only int8 +1/-1 and shares memory with none of
    ``writable`` nor with another of ``arrays``."""
    for i, x in enumerate(arrays):
        assert x.dtype == np.int8 and x.ndim == 1
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[:1] = 1
        assert np.isin(x, (-1, 1)).all()
        for y in writable + arrays[i + 1:]:
            assert not np.shares_memory(x, y)


class TestProducers:
    def test_qm_generate(self):
        for n in (1, 2, 1000):
            p = qm_generate(Angle(0.0), Angle(0.4), CorrelationLaw.PHOTON_MALUS, n, RngSpec(n))
            _assert_frozen_outcomes([p.a.values, p.b.values], [])

    def test_split_random(self):
        source = random_counterfactual(RngSpec(2), 1000)
        columns = [s.values for s in (source.a_seq, source.d_seq, source.b_seq, source.c_seq)]
        _assert_frozen_outcomes(_sides(split_random(source, RngSpec(3))), columns)

    def test_both_ingests(self):
        subruns = generate_subruns(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS, 500, RngSpec(4))
        counterfactual = random_counterfactual(RngSpec(5), 500)
        for write, ingest, data in (
            (write_subrun_csv, ingest_csv, subruns),
            (write_counterfactual_csv, ingest_counterfactual_csv, counterfactual),
        ):
            buf = io.StringIO()
            write(data, buf)
            # A bytearray source is caller memory that stays writable.
            raw = bytearray(buf.getvalue().encode())
            back = ingest(raw)
            _assert_frozen_outcomes(_sides(back), [np.frombuffer(raw, np.uint8)])
            assert [x.tolist() for x in _sides(back)] == [x.tolist() for x in _sides(data)]

    def test_trim_to_shortest(self):
        data = SubRunDataset(
            pairs([1, -1, 1], [1, 1, -1]),
            pairs([1, -1], [-1, -1]),
            pairs([-1, 1, 1, 1], [1, 1, 1, -1]),
            pairs([1, 1], [-1, 1]),
        )
        trimmed = trim_to_shortest(data)
        assert trimmed.counts == (2, 2, 2, 2)
        # The trimmed lists are slices of the source's frozen arrays.
        for x, y in zip(_sides(trimmed), _sides(data)):
            assert not y.flags.writeable
            assert x.tolist() == y[:2].tolist()
        _assert_frozen_outcomes(_sides(trimmed), [])


class TestPublicConstructorStillChecks:
    """Its rejections are in ``test_core.TestOutcomeSequence``."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_copies_the_callers_array(self, dtype):
        mine = np.array([1, -1, 1], dtype=dtype)
        seq = OutcomeSequence(mine)
        assert not np.shares_memory(mine, seq.values)
        assert seq.values.dtype == np.int8 and not seq.values.flags.writeable
        mine[0] = -1
        assert seq.values.tolist() == [1, -1, 1]
        assert mine.flags.writeable

    def test_lhv_model_returning_zeros_still_raises(self):
        def zeros(theta, lam):
            return np.zeros(lam.shape, np.int8)

        with pytest.raises(ValueError, match=r"\+1 or -1"):
            lhv_generate(zeros, PHOTON_OPTIMAL_QUAD, 10, RngSpec(1))

    def test_lhv_outputs_are_copies_of_the_responses(self):
        kept = []

        def response(theta, lam):
            out = np.where(np.cos(2.0 * (theta - lam)) >= 0.0, 1, -1).astype(np.int8)
            kept.append(out)
            return out

        data = lhv_generate(response, PHOTON_OPTIMAL_QUAD, 100, RngSpec(2))
        _assert_frozen_outcomes(_sides(data), kept)


def _qm_where(alpha, beta, law, n, rng):
    """qm_generate as it was written with ``np.where``: the same draws."""
    e = law.pair_correlation(alpha, beta)
    g = rng.generator()
    s = (g.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.int8)
    agree = g.random(n) < (1.0 + e) / 2.0
    return s, np.where(agree, s, -s).astype(np.int8)


class TestQmGenerateMatchesWhereFormula:
    # Photon-malus E = cos 2(alpha - beta) of -1, 0, 0.7 and 1.
    @pytest.mark.parametrize("delta", [math.pi / 2, math.pi / 4, math.acos(0.7) / 2, 0.0])
    @pytest.mark.parametrize("n", [1, 2, 1000, 100_000])
    def test_same_pairs(self, delta, n):
        alpha, beta = Angle(0.1), Angle(0.1 + delta)
        law = CorrelationLaw.PHOTON_MALUS
        for seed in (0, 1, 2**40 + 3):
            got = qm_generate(alpha, beta, law, n, RngSpec(seed, n))
            s, t = _qm_where(alpha, beta, law, n, RngSpec(seed, n))
            assert np.array_equal(got.a.values, s) and np.array_equal(got.b.values, t)
            assert got.b.values.dtype == np.int8
