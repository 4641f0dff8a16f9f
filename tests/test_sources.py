"""Generators (LHV and QM) and the CSV interchange formats."""

import collections
import contextlib
import csv
import io
import itertools
import math
import os
import re
import stat
import string
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from chshkit import (
    Angle,
    CorrelationLaw,
    CsvFormatError,
    PHOTON_OPTIMAL_QUAD,
    RngSpec,
    SIGN_MALUS,
    SPIN_OPTIMAL_QUAD,
    SettingsQuad,
    SubRunDataset,
    generate_subruns,
    ingest_counterfactual_csv,
    ingest_csv,
    lhv_generate,
    qm_generate,
    write_counterfactual_csv,
    write_subrun_csv,
)
from chshkit import sources
from chshkit.rng import _DRAW_BLOCK
from helpers import (
    lhv_malus_correlation,
    pairs,
    random_counterfactual,
    random_signs,
    reference_ingest_counterfactual,
    reference_ingest_subruns,
    reference_qm_generate,
    reference_write_counterfactual_csv,
    reference_write_subrun_csv,
    traced_peak,
)

deg = Angle.from_degrees


def correlation(s, t) -> float:
    """Mean per-trial product of two equal-length outcome sequences."""
    return float(np.mean(s.values * t.values, dtype=np.float64))


class TestCorrelationLaw:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [
            (0.0, 0.0, 1.0),
            (0.0, 22.5, math.cos(math.pi / 4)),
            (0.0, 45.0, 0.0),
            (0.0, 67.5, -math.cos(math.pi / 4)),
            (0.0, 90.0, -1.0),
        ],
    )
    def test_photon_malus_values(self, alpha, beta, expected):
        law = CorrelationLaw.PHOTON_MALUS
        assert law.pair_correlation(deg(alpha), deg(beta)) == pytest.approx(expected)

    def test_photon_law_is_pi_periodic(self):
        law = CorrelationLaw.PHOTON_MALUS
        assert law.pair_correlation(deg(10), deg(190)) == pytest.approx(
            law.pair_correlation(deg(10), deg(10))
        )

    def test_spin_half_values(self):
        law = CorrelationLaw.SPIN_HALF
        assert law.pair_correlation(deg(0), deg(0)) == -1.0
        assert law.pair_correlation(deg(0), deg(90)) == pytest.approx(0.0, abs=1e-15)
        assert law.pair_correlation(deg(45), deg(105)) == pytest.approx(-math.cos(math.pi / 3))

    def test_magnitude_bounded_by_one(self):
        g = np.random.default_rng(0)
        for law in CorrelationLaw:
            for _ in range(200):
                x, y = g.uniform(0, 180, size=2)
                assert abs(law.pair_correlation(deg(x), deg(y))) <= 1.0

    def test_lookup_by_value(self):
        assert CorrelationLaw("photon-malus") is CorrelationLaw.PHOTON_MALUS
        assert CorrelationLaw("spin-half") is CorrelationLaw.SPIN_HALF


class TestLhvModel:
    def test_sign_malus_hand_values(self):
        lam = np.array([0.0, math.pi / 3, math.pi / 2])
        # cos(0)=1, cos(-2pi/3)=-1/2, cos(-pi)=-1 at theta=0.
        assert SIGN_MALUS(0.0, lam).tolist() == [1, -1, -1]

    def test_forced_lambda_zero_example(self):
        # One trial, lambda forced to 0, settings (0, 45, 22.5, 67.5)
        # degrees: only the c outcome goes negative (cos 3pi/4 < 0).
        quad = SettingsQuad.from_degrees(0.0, 45.0, 22.5, 67.5)
        lam = np.array([0.0])
        settings = (quad.a, quad.d, quad.b, quad.c)
        assert [SIGN_MALUS(x.radians, lam)[0] for x in settings] == [1, 1, 1, -1]

    def test_closed_form_matches_grid_integration(self):
        # Midpoint-rule average of the response product over a dense
        # lambda grid is the model's exact correlation up to O(1/m).
        m = 1_000_000
        lam = (np.arange(m) + 0.5) * (math.pi / m)
        for a_deg, b_deg in [(0, 0), (0, 10), (0, 22.5), (0, 45), (30, 120), (10, 167.5)]:
            alpha, beta = deg(a_deg), deg(b_deg)
            grid = float(
                np.mean(
                    SIGN_MALUS(alpha.radians, lam)
                    * SIGN_MALUS(beta.radians, lam),
                    dtype=np.float64,
                )
            )
            assert lhv_malus_correlation(alpha, beta) == pytest.approx(grid, abs=1e-5)

    def test_closed_form_endpoints(self):
        assert lhv_malus_correlation(deg(0), deg(0)) == 1.0
        assert lhv_malus_correlation(deg(0), deg(90)) == -1.0
        assert lhv_malus_correlation(deg(0), deg(45)) == pytest.approx(0.0, abs=1e-15)


class TestLhvGenerate:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match=">= 1"):
            lhv_generate(SIGN_MALUS, PHOTON_OPTIMAL_QUAD, 0, RngSpec(1))

    @pytest.mark.parametrize("n", [True, 2.5, 2.0])
    def test_rejects_non_integer_trials(self, n):
        with pytest.raises(ValueError, match="integer >= 1"):
            lhv_generate(SIGN_MALUS, PHOTON_OPTIMAL_QUAD, n, RngSpec(1))

    def test_reproducible_bit_identical(self):
        a = lhv_generate(SIGN_MALUS, PHOTON_OPTIMAL_QUAD, 500, RngSpec(3))
        b = lhv_generate(SIGN_MALUS, PHOTON_OPTIMAL_QUAD, 500, RngSpec(3))
        for x, y in [(a.a_seq, b.a_seq), (a.d_seq, b.d_seq), (a.b_seq, b.b_seq), (a.c_seq, b.c_seq)]:
            assert np.array_equal(x.values, y.values)

    def test_settings_attached(self):
        data = lhv_generate(SIGN_MALUS, PHOTON_OPTIMAL_QUAD, 5, RngSpec(0))
        assert data.settings is PHOTON_OPTIMAL_QUAD
        assert data.n == 5

    def test_empirical_correlation_matches_closed_form(self):
        quad = PHOTON_OPTIMAL_QUAD
        data = lhv_generate(SIGN_MALUS, quad, 100_000, RngSpec(12))
        checks = [
            (data.a_seq, data.b_seq, quad.a, quad.b),
            (data.a_seq, data.c_seq, quad.a, quad.c),
            (data.d_seq, data.b_seq, quad.d, quad.b),
            (data.d_seq, data.c_seq, quad.d, quad.c),
        ]
        for s, t, x, y in checks:
            assert correlation(s, t) == pytest.approx(lhv_malus_correlation(x, y), abs=0.02)

    def test_sequence_means_near_zero(self):
        data = lhv_generate(SIGN_MALUS, PHOTON_OPTIMAL_QUAD, 100_000, RngSpec(4))
        for s in (data.a_seq, data.d_seq, data.b_seq, data.c_seq):
            assert abs(float(np.mean(s.values, dtype=np.float64))) < 0.02

    B = _DRAW_BLOCK

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B, 2 * B + 1, 1_000_000, 1_000_003])
    def test_same_outcomes_as_drawing_lambda_whole(self, n):
        # lambda is drawn a block at a time; an elementwise response gives
        # the outcomes one draw of all n lambdas gives, past every block edge.
        for quad in (PHOTON_OPTIMAL_QUAD, SPIN_OPTIMAL_QUAD):
            data = lhv_generate(SIGN_MALUS, quad, n, RngSpec(7))
            lam = RngSpec(7).generator().uniform(0.0, math.pi, size=n)
            for seq, x in zip(data.sequences, quad.angles):
                assert np.array_equal(seq.values, SIGN_MALUS(x.radians, lam))


class TestQmGenerate:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match=">= 1"):
            qm_generate(deg(0), deg(0), CorrelationLaw.PHOTON_MALUS, 0, RngSpec(1))

    @pytest.mark.parametrize("n", [True, 2.5, 2.0])
    def test_rejects_non_integer_trials(self, n):
        with pytest.raises(ValueError, match="integer >= 1"):
            qm_generate(deg(0), deg(0), CorrelationLaw.PHOTON_MALUS, n, RngSpec(1))

    def test_accepts_numpy_integer_trials(self):
        p = qm_generate(deg(0), deg(0), CorrelationLaw.PHOTON_MALUS, np.int64(5), RngSpec(1))
        assert len(p.a) == len(p.b) == 5

    def test_equal_angles_perfectly_correlated(self):
        p = qm_generate(deg(30), deg(30), CorrelationLaw.PHOTON_MALUS, 2000, RngSpec(5))
        assert np.array_equal(p.a.values, p.b.values)

    def test_orthogonal_angles_uncorrelated(self):
        n = 100_000
        p = qm_generate(deg(0), deg(45), CorrelationLaw.PHOTON_MALUS, n, RngSpec(6))
        assert abs(correlation(p.a, p.b)) <= 4 / math.sqrt(n)

    def test_correlation_tracks_law(self):
        n = 100_000
        for a_deg, b_deg in [(0, 22.5), (0, 67.5), (10, 50)]:
            e = CorrelationLaw.PHOTON_MALUS.pair_correlation(deg(a_deg), deg(b_deg))
            p = qm_generate(deg(a_deg), deg(b_deg), CorrelationLaw.PHOTON_MALUS, n, RngSpec(7))
            assert correlation(p.a, p.b) == pytest.approx(e, abs=0.02)

    def test_joint_cells_match_law(self):
        n = 100_000
        alpha, beta = deg(0), deg(22.5)
        e = CorrelationLaw.PHOTON_MALUS.pair_correlation(alpha, beta)
        p = qm_generate(alpha, beta, CorrelationLaw.PHOTON_MALUS, n, RngSpec(8))
        tol = 4 / math.sqrt(n)
        for s in (1, -1):
            for t in (1, -1):
                freq = np.count_nonzero((p.a.values == s) & (p.b.values == t)) / n
                assert freq == pytest.approx((1 + s * t * e) / 4, abs=tol)

    def test_marginals_fair(self):
        n = 100_000
        p = qm_generate(deg(0), deg(22.5), CorrelationLaw.PHOTON_MALUS, n, RngSpec(9))
        tol = 4 / math.sqrt(n)
        assert abs(float(np.mean(p.a.values, dtype=np.float64))) <= tol
        assert abs(float(np.mean(p.b.values, dtype=np.float64))) <= tol

    def test_deterministic(self):
        x = qm_generate(deg(0), deg(22.5), CorrelationLaw.PHOTON_MALUS, 100, RngSpec(10))
        y = qm_generate(deg(0), deg(22.5), CorrelationLaw.PHOTON_MALUS, 100, RngSpec(10))
        assert np.array_equal(x.a.values, y.a.values) and np.array_equal(x.b.values, y.b.values)


class _Correlation:
    """A law whose pair correlation is ``e`` at every pair of angles."""

    def __init__(self, e: float) -> None:
        self.e = e

    def pair_correlation(self, alpha, beta) -> float:
        return self.e


class _Words:
    """An rng whose generator's bit generator hands out ``arrays`` as its
    raw words, one per ``random_raw`` call, and records each call's size."""

    def __init__(self, *arrays) -> None:
        self.arrays, self.sizes = list(arrays), []

    def generator(self):
        return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=self._raw))

    def _raw(self, size):
        self.sizes.append(size)
        return np.array(self.arrays.pop(0), dtype=np.uint64)


_Q = PHOTON_OPTIMAL_QUAD
# Agreement probabilities p = (1 + e) / 2 at their ends and in between: 0,
# 1, 1 - 2**-53, 2**-54 (p is 0 or at least 2**-54, so this stands in for
# 5e-324: ceil(p * 2**53) is 1 for both), 0.5 and the photon-optimal quad's
# four pairs (p of 0.854 and 0.146).
_LAWS = {
    "p=0": (_Correlation(-1.0), deg(0), deg(0)),
    "p=1": (_Correlation(1.0), deg(0), deg(0)),
    "p=1-2**-53": (_Correlation(1.0 - 2.0**-52), deg(0), deg(0)),
    "p=2**-54": (_Correlation(-1.0 + 2.0**-53), deg(0), deg(0)),
    "p=0.5": (_Correlation(0.0), deg(0), deg(0)),
    **{f"photon-{x}{y}": (CorrelationLaw.PHOTON_MALUS, getattr(_Q, x), getattr(_Q, y))
       for x, y in ("ab", "ac", "db", "dc")},
}


def _p(case) -> float:
    law, alpha, beta = case
    return (1.0 + law.pair_correlation(alpha, beta)) / 2.0


class TestQmGenerateReadsRawWords:
    """qm_generate reads the Philox words that Generator.integers and
    Generator.random would use and gives exactly their pairs."""

    def test_laws_give_their_p(self):
        assert [_p(case) for case in list(_LAWS.values())[:5]] == [0.0, 1.0, 1 - 2.0**-53, 2.0**-54, 0.5]

    @pytest.mark.parametrize("name", list(_LAWS))
    def test_same_pairs_as_integers_and_random(self, name):
        law, alpha, beta = _LAWS[name]
        # Every n mod 8, so the sign bytes end part-way through a word.
        for n in [*range(1, 71), 1000, 100_003]:
            got = qm_generate(alpha, beta, law, n, RngSpec(25, n))
            s, t = reference_qm_generate(alpha, beta, law, n, RngSpec(25, n))
            assert np.array_equal(got.a.values, s) and np.array_equal(got.b.values, t), n

    @pytest.mark.parametrize("name", list(_LAWS))
    def test_agreement_at_floor_and_ceil_of_p_scaled(self, name):
        # Words whose top 53 bits are floor(p * 2**53) and ceil(p * 2**53),
        # one either side, with the low 11 bits clear and set.
        law, alpha, beta = _LAWS[name]
        p = _p(_LAWS[name])
        x = p * 2.0**53
        tops = sorted({min(max(m, 0), 2**53 - 1)
                       for m in (math.floor(x) - 1, math.floor(x), math.ceil(x), math.ceil(x) + 1)})
        words = [top << 11 | low for top in tops for low in (0, 0x7FF)]
        n = len(words)
        rng = _Words([2**64 - 1] * -(-n // 8), words)  # every sign +1
        got = qm_generate(alpha, beta, law, n, rng)
        assert rng.sizes == [-(-n // 8), n]
        agree = [(w >> 11) * 2.0**-53 < p for w in words]
        assert got.a.values.tolist() == [1] * n
        assert got.b.values.tolist() == [1 if a else -1 for a in agree]

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17])
    def test_sign_is_the_top_bit_of_each_byte_in_little_endian_order(self, n):
        # Bytes with only the top bit, with every bit but the top, and with
        # only bit 6, in a pattern that differs between the halves of a word.
        pattern = np.array([0x80, 0x7F, 0x40, 0xFF, 0x00, 0xC0, 0x3F, 0x81, 0x01, 0xBF], np.uint8)
        data = np.resize(pattern, -(-n // 8) * 8)
        rng = _Words(data.view("<u8").astype(np.uint64), [0] * n)
        got = qm_generate(deg(0), deg(0), _Correlation(1.0), n, rng)  # p = 1: t = s
        assert got.a.values.tolist() == [1 if b >= 0x80 else -1 for b in data[:n]]
        assert np.array_equal(got.b.values, got.a.values)


class TestGenerateSubruns:
    @pytest.mark.parametrize("n_per", [True, 2.5])
    def test_rejects_non_integer_trials(self, n_per):
        with pytest.raises(ValueError, match="integer >= 1"):
            generate_subruns(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS, n_per, RngSpec(1))

    def test_single_trial_lists(self):
        data = generate_subruns(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS, 1, RngSpec(1))
        assert data.counts == (1, 1, 1, 1)
        assert data.settings is PHOTON_OPTIMAL_QUAD

    def test_lists_on_distinct_streams(self):
        data = generate_subruns(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS, 200, RngSpec(2))
        sides = [data.ab.a, data.ac.a, data.db.a, data.dc.a]
        for i in range(len(sides)):
            for j in range(i + 1, len(sides)):
                assert not np.array_equal(sides[i].values, sides[j].values)

    def test_deterministic(self):
        x = generate_subruns(SPIN_OPTIMAL_QUAD, CorrelationLaw.SPIN_HALF, 64, RngSpec(3))
        y = generate_subruns(SPIN_OPTIMAL_QUAD, CorrelationLaw.SPIN_HALF, 64, RngSpec(3))
        for px, py in zip(x.lists, y.lists):
            assert np.array_equal(px.a.values, py.a.values)
            assert np.array_equal(px.b.values, py.b.values)


SUBRUN_HEADER = "pair,outcome_a,outcome_b"


class TestSubrunCsv:
    def test_one_row_per_label(self):
        text = f"{SUBRUN_HEADER}\nab,+1,+1\nac,+1,-1\ndb,-1,+1\ndc,-1,-1\n"
        data = ingest_csv(io.StringIO(text))
        assert data.counts == (1, 1, 1, 1)
        assert (data.ab.a.values.tolist(), data.ab.b.values.tolist()) == ([1], [1])
        assert (data.dc.a.values.tolist(), data.dc.b.values.tolist()) == ([-1], [-1])

    def test_round_trip_exact(self):
        src = generate_subruns(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS, 50, RngSpec(4))
        buf = io.StringIO()
        write_subrun_csv(src, buf)
        back = ingest_csv(io.StringIO(buf.getvalue()))
        for p, q in zip(src.lists, back.lists):
            assert np.array_equal(p.a.values, q.a.values) and np.array_equal(p.b.values, q.b.values)

    def test_write_is_byte_stable(self):
        src = generate_subruns(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS, 20, RngSpec(5))
        bufs = [io.StringIO(), io.StringIO()]
        for buf in bufs:
            write_subrun_csv(src, buf)
        assert bufs[0].getvalue() == bufs[1].getvalue()
        assert "\r" not in bufs[0].getvalue()

    def test_write_canonical_block_order(self):
        data = SubRunDataset(
            pairs([1], [1]), pairs([1], [-1]), pairs([-1], [1]), pairs([-1], [-1])
        )
        buf = io.StringIO()
        write_subrun_csv(data, buf)
        labels = [line.split(",")[0] for line in buf.getvalue().splitlines()[1:]]
        assert labels == ["ab", "ac", "db", "dc"]

    def test_outcomes_written_with_explicit_sign(self):
        data = ingest_csv(f"{SUBRUN_HEADER}\nab,+1,-1\nac,+1,+1\ndb,-1,-1\ndc,+1,+1\n".encode())
        buf = io.StringIO()
        write_subrun_csv(data, buf)
        assert "ab,+1,-1" in buf.getvalue()

    def test_reads_path_bytes_and_stream(self, tmp_path):
        text = f"{SUBRUN_HEADER}\nab,+1,+1\nac,+1,-1\ndb,-1,+1\ndc,-1,-1\n"
        path = tmp_path / "trials.csv"
        path.write_text(text, encoding="utf-8")
        for source in (path, str(path), text.encode(), io.StringIO(text)):
            assert ingest_csv(source).counts == (1, 1, 1, 1)
        with open(path, "rb") as stream:  # a binary file-like source
            assert ingest_csv(stream).counts == (1, 1, 1, 1)
        assert ingest_csv(io.BytesIO(text.encode())).counts == (1, 1, 1, 1)

    def test_unreadable_source_is_a_type_error(self):
        with pytest.raises(TypeError, match="^cannot read CSV from int$"):
            ingest_csv(42)

    def test_unknown_label_names_row(self):
        text = f"{SUBRUN_HEADER}\nab,+1,+1\nxy,+1,-1\n"
        with pytest.raises(CsvFormatError, match="unknown setting pair 'xy' at row 2"):
            ingest_csv(text.encode())

    def test_header_only_is_no_trials(self):
        with pytest.raises(CsvFormatError, match="no trials"):
            ingest_csv(f"{SUBRUN_HEADER}\n".encode())

    def test_missing_column(self):
        with pytest.raises(CsvFormatError, match="missing column"):
            ingest_csv(b"pair,outcome_a\nab,+1\n")

    def test_unexpected_column(self):
        with pytest.raises(CsvFormatError, match="unexpected column"):
            ingest_csv(f"{SUBRUN_HEADER},extra\nab,+1,+1,+1\n".encode())

    @pytest.mark.parametrize("n_extra, named", [(8, "x, " * 7 + "x"), (9, "x, " * 7 + "x and 1 more")])
    def test_unexpected_columns_past_eight_are_counted(self, n_extra, named):
        text = "x," * n_extra + f"{SUBRUN_HEADER}\nab,+1,+1\n"
        with pytest.raises(CsvFormatError, match=rf"^unexpected column\(s\): {named}$"):
            ingest_csv(text.encode())
        with pytest.raises(CsvFormatError, match=rf"^unexpected column\(s\): {named}$"):
            reference_ingest_subruns(text)

    def test_many_unexpected_columns_give_a_bounded_message(self):
        # 400,000 names once gave a message of 1,200,020 characters.
        header = "x," * 400_000 + SUBRUN_HEADER
        with pytest.raises(CsvFormatError) as raised:
            ingest_csv(f"{header}\nab,+1,+1\n".encode())
        assert str(raised.value) == "unexpected column(s): " + "x, " * 7 + "x and 399992 more"

    @pytest.mark.parametrize("bad", ["0", "2", "x", ""])
    def test_invalid_outcome_rejected(self, bad):
        text = f"{SUBRUN_HEADER}\nab,{bad},+1\n"
        with pytest.raises(CsvFormatError, match="row 1"):
            ingest_csv(text.encode())

    def test_first_of_several_bad_rows_is_reported(self):
        text = f"{SUBRUN_HEADER}\nab,+1,+1\nac,+1,x\nxy,+1,+1\ndb,0,+1\n"
        with pytest.raises(CsvFormatError, match="invalid outcome 'x' in column 'outcome_b' at row 2"):
            ingest_csv(text.encode())

    def test_wrong_field_count(self):
        with pytest.raises(CsvFormatError, match="wrong number of fields at row 2"):
            ingest_csv(f"{SUBRUN_HEADER}\nab,+1,+1\nac,+1\n".encode())

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_invalid_utf8_names_its_row(self, quote):
        rows = f"ab,+1,{quote}+1{quote}\nac,+1,\xff1\nxy,+1,+1\n".encode("latin-1")
        with pytest.raises(CsvFormatError, match="^invalid UTF-8 at row 2$"):
            ingest_csv(f"{SUBRUN_HEADER}\n".encode() + rows)
        # An earlier bad row is reported first.
        with pytest.raises(CsvFormatError, match="unknown setting pair 'xy' at row 1"):
            ingest_csv(f"{SUBRUN_HEADER}\n".encode() + rows.replace(b"ab", b"xy"))
        # A text stream holding a lone surrogate cannot be UTF-8 either.
        text = f"{SUBRUN_HEADER}\nab,+1,{quote}-1{quote}\ndc,\ud800,1\n"
        with pytest.raises(CsvFormatError, match="^invalid UTF-8 at row 2$"):
            ingest_csv(io.StringIO(text))
        with pytest.raises(CsvFormatError, match="^invalid UTF-8 in the header$"):
            ingest_csv(io.StringIO(f"{SUBRUN_HEADER}\ud800\nab,+1,-1\n"))

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_field_over_the_limit_names_its_row(self, quote):
        limit = csv.field_size_limit()
        cell = f"{quote}{'1' * (limit + 1)}{quote}"
        text = f"{SUBRUN_HEADER}\nab,+1,+1\nac,{cell},+1\nxy,+1,+1\n"
        with pytest.raises(CsvFormatError, match=rf"^field larger than field limit \({limit}\) at row 2$"):
            ingest_csv(text.encode())
        # A field of exactly the limit is read, and fails as an outcome.
        with pytest.raises(CsvFormatError, match="^invalid outcome '1+' in column 'outcome_a' at row 2$"):
            ingest_csv(text.replace("1" * (limit + 1), "1" * limit).encode())

    def test_quoted_header_leaves_the_rows_to_bulk_splitting(self):
        data = generate_subruns(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS, 5_000, RngSpec(9))
        buf = io.StringIO()
        write_subrun_csv(data, buf)
        rows = buf.getvalue().split("\n", 1)[1]
        text = '"pair","outcome_a","outcome_b"\n' + rows
        assert rows.count("\n") == 20_000

        with pytest.MonkeyPatch.context() as mp:
            read = self._counting_csv_reader(mp)
            back = ingest_csv(text.encode())
        assert read == [b'"pair","outcome_a","outcome_b"\n']  # the header line alone
        for p, q in zip(data.lists, back.lists):
            assert np.array_equal(p.a.values, q.a.values) and np.array_equal(p.b.values, q.b.values)

    @staticmethod
    def _counting_csv_reader(mp) -> list[bytes]:
        """Patch ``_csv_rows`` to record each block csv.reader reads."""
        read, csv_rows = [], sources._csv_rows

        def counting(blocks):
            def counted():
                for block in blocks:
                    read.append(block)
                    yield block

            return csv_rows(counted())

        mp.setattr(sources, "_csv_rows", counting)
        return read

    def test_quoted_cell_leaves_later_blocks_to_bulk_splitting(self):
        data = generate_subruns(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS, 20_000, RngSpec(9))
        buf = io.StringIO()
        write_subrun_csv(data, buf)
        lines = buf.getvalue().split("\n")
        lines[5] = f'"{lines[5][:2]}"{lines[5][2:]}'  # data row 5, as "ab",+1,-1
        text = "\n".join(lines)
        blocks = _blocks_of(text.encode())
        assert blocks[0] == f"{SUBRUN_HEADER}\n".encode()
        assert len(blocks) >= 6 and b'"' in blocks[1]
        with pytest.MonkeyPatch.context() as mp:
            read = self._counting_csv_reader(mp)
            got = _subrun_columns(text)
        assert read == blocks[:2]  # the header line, then the quoted cell's own block
        assert got == reference_ingest_subruns(text)

    @pytest.mark.parametrize("block_bytes", [7, 64, sources._BLOCK_BYTES])
    @pytest.mark.parametrize(
        "rows, bad_row",
        [
            (['"ab",+1,-1', "ac,+1", "db,{big},+1"], 2),  # too few fields, then a field over the limit
            (['"ab",+1,+2', "ac,+1", "db,{big},+1"], 1),  # and a bad outcome before both
            (['"ab",+1,-1', "ac,+1,-1", "db,{big},+1"], 3),  # the field over the limit alone
        ],
    )
    def test_csv_reader_batch_names_its_first_bad_row(self, block_bytes, rows, bad_row):
        # A limit this low puts all three rows in one block of the default size.
        limit = csv.field_size_limit(40)
        try:
            text = "\n".join([SUBRUN_HEADER, *rows]).replace("{big}", "1" * 41) + "\n"
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sources, "_BLOCK_BYTES", block_bytes)
                blocks = _blocks_of(text.encode())
                got = _columns_or_error(_subrun_columns, text)
            expected = _columns_or_error(reference_ingest_subruns, text)
        finally:
            csv.field_size_limit(limit)
        assert (len(blocks) == 2) is (block_bytes == sources._BLOCK_BYTES)  # the header line, then the rows
        assert got == expected
        assert got.endswith(f" at row {bad_row}")

    def test_csv_reader_reads_on_while_a_record_spans_blocks(self):
        # The quoted outcome holds a line break at the end of the first read.
        header = f"{SUBRUN_HEADER}\n".encode()
        blocks = [header, b'ab,+1,-1\nac,"+1\n', b'",-1\ndb,+1,+1\n' + b"dc,-1,-1\n" * 3, b"ab,+1,+1\n"]
        text = b"".join(blocks).decode()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "_BLOCK_BYTES", len(blocks[0] + blocks[1]))
            assert _blocks_of(text.encode()) == blocks
            read = self._counting_csv_reader(mp)
            got = _subrun_columns(text)
        assert read == blocks[:3]  # the last block starts with a record, and is split in bulk
        assert got == reference_ingest_subruns(text)

    @pytest.mark.parametrize("header_end, row_end", [("\n", "\n"), ("\r", "\r"), ("\r", "\n"), ("\n", "\r")])
    def test_first_line_is_a_block_of_its_own(self, header_end, row_end):
        data = f"{SUBRUN_HEADER}{header_end}" + f"ab,+1,-1{row_end}" * 3
        for reads in (None, [1, 2]):  # whole, then in reads of 1 or 2 bytes
            blocks = _blocks_of(data.encode(), reads)
            assert blocks == [f"{SUBRUN_HEADER}{header_end}".encode(), f"ab,+1,-1{row_end}".encode() * 3]
            assert ingest_csv(_source(data.encode(), reads)).counts == (3, 0, 0, 0)

    def test_short_reads_are_gathered_into_full_blocks(self):
        data = generate_subruns(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS, 500, RngSpec(9))
        buf = io.StringIO()
        write_subrun_csv(data, buf)
        text = buf.getvalue()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "_BLOCK_BYTES", 64)
            blocks = _blocks_of(text.encode(), [1, 5, 2, 3])
            got = _subrun_columns(text, [1, 5, 2, 3])
        assert b"".join(blocks) == text.encode()
        assert len(blocks) <= math.ceil(len(text) / 64) + 1  # the header line, then one block per 64 bytes read
        assert got == _subrun_columns(text)

    @pytest.mark.parametrize("row", [b"x,ab,+1,-1\n", b"x,ab,+1,\xff1\n"])
    def test_header_that_runs_on_is_rejected_before_the_rows_of_its_batch(self, row):
        # The batch that reads the header reads on into the next block, and
        # may fail there; the header's own line break is the error.
        text = b'"ex\ntra",pair,outcome_a,outcome_b\n' + row
        with pytest.raises(CsvFormatError, match="^unexpected column\\(s\\): ex\ntra$"):
            ingest_csv(text)

    def test_blank_line_before_the_header_is_an_empty_header(self):
        with pytest.raises(CsvFormatError, match=r"^missing column\(s\): pair, outcome_a, outcome_b$"):
            ingest_csv(f"\n{SUBRUN_HEADER}\nab,+1,+1\n".encode())

    @pytest.mark.parametrize("block_bytes", [1, 2, 3, 7, sources._BLOCK_BYTES])
    def test_byte_order_mark_bytes_are_utf8_signature(self, block_bytes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "_BLOCK_BYTES", block_bytes)
            data = ingest_csv(f"\ufeff{SUBRUN_HEADER}\nab,+1,-1\n".encode())
            cf = ingest_counterfactual_csv(f"\ufeff{CF_HEADER}\n1,+1,-1,+1,-1\n".encode())
        assert data.counts == (1, 0, 0, 0) and cf.n == 1

    def test_byte_order_mark_text_stream_is_utf8_signature(self):
        for block_bytes in (1, sources._BLOCK_BYTES):  # one character a read, then all of them
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sources, "_BLOCK_BYTES", block_bytes)
                data = ingest_csv(io.StringIO(f"\ufeff{SUBRUN_HEADER}\r\nab,+1,-1\r\n"))
            assert data.counts == (1, 0, 0, 0)

    def test_byte_order_mark_elsewhere_is_text(self):
        text = f"\ufeff{SUBRUN_HEADER}\nab,+1,-1\n"
        with pytest.raises(CsvFormatError, match=r"^missing column\(s\): pair$"):
            ingest_csv(f"\ufeff{text}".encode())  # a second mark
        with pytest.raises(CsvFormatError, match=r"^missing column\(s\): pair, outcome_a, outcome_b$"):
            ingest_csv(f"\n{text}".encode())  # after a blank first line
        with pytest.raises(CsvFormatError, match=r"^invalid outcome '\\ufeff-1' in column 'outcome_b' at row 1$"):
            ingest_csv(text.replace("-1", "\ufeff-1").encode())

    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        target = tmp_path / "trials.csv"
        target.write_bytes(b"earlier,file\n")
        first_list = pairs([1, -1, 1], [1, 1, -1])

        class FailsAfterOneList:
            @property
            def lists(self):
                yield first_list
                raise RuntimeError("generator failed")

        with pytest.raises(RuntimeError):
            write_subrun_csv(FailsAfterOneList(), target)
        assert target.read_bytes() == b"earlier,file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trials.csv"]

    def test_empty_list_for_absent_label_is_allowed(self):
        data = ingest_csv(f"{SUBRUN_HEADER}\nab,+1,+1\n".encode())
        assert data.counts == (1, 0, 0, 0)


CF_HEADER = "j,a,d,b,c"


class TestCounterfactualCsv:
    def test_round_trip_exact(self):
        src = random_counterfactual(RngSpec(6), 40)
        buf = io.StringIO()
        write_counterfactual_csv(src, buf)
        back = ingest_counterfactual_csv(io.StringIO(buf.getvalue()))
        for x, y in [
            (src.a_seq, back.a_seq),
            (src.d_seq, back.d_seq),
            (src.b_seq, back.b_seq),
            (src.c_seq, back.c_seq),
        ]:
            assert np.array_equal(x.values, y.values)

    def test_indices_written_one_based(self):
        src = random_counterfactual(RngSpec(7), 3)
        buf = io.StringIO()
        write_counterfactual_csv(src, buf)
        assert [line.split(",")[0] for line in buf.getvalue().splitlines()] == ["j", "1", "2", "3"]

    def test_non_contiguous_indices_accepted(self):
        text = f"{CF_HEADER}\n10,+1,+1,+1,+1\n3,-1,-1,-1,-1\n"
        data = ingest_counterfactual_csv(text.encode())
        assert data.n == 2 and data.a_seq.values.tolist() == [1, -1]

    def test_invalid_index_rejected(self):
        text = f"{CF_HEADER}\nfirst,+1,+1,+1,+1\n"
        with pytest.raises(CsvFormatError, match="invalid trial index"):
            ingest_counterfactual_csv(text.encode())

    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        target = tmp_path / "cf.csv"
        target.write_bytes(b"earlier,file\n")
        src = random_counterfactual(RngSpec(8), 6)
        # A c column shorter than the others makes the write fail part way.
        short_c = SimpleNamespace(values=src.c_seq.values[:3])
        broken = SimpleNamespace(n=6, sequences=(src.a_seq, src.d_seq, src.b_seq, short_c))
        with pytest.raises((ValueError, IndexError)):
            write_counterfactual_csv(broken, target)
        assert target.read_bytes() == b"earlier,file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cf.csv"]

    def test_first_of_several_bad_rows_is_reported(self):
        text = f"{CF_HEADER}\n1,+1,+1,+1,+1\nx,+1,+1,+1,+1\ny,+1,0,+1,+1\n"
        with pytest.raises(CsvFormatError, match="invalid trial index 'x' at row 2"):
            ingest_counterfactual_csv(text.encode())

    def test_header_and_field_errors(self):
        with pytest.raises(CsvFormatError, match="missing column"):
            ingest_counterfactual_csv(b"j,a,d,b\n1,+1,+1,+1\n")
        with pytest.raises(CsvFormatError, match="no trials"):
            ingest_counterfactual_csv(f"{CF_HEADER}\n".encode())
        with pytest.raises(CsvFormatError, match="outcome outside"):
            ingest_counterfactual_csv(f"{CF_HEADER}\n1,+1,+3,+1,+1\n".encode())


class TestOutputTargets:
    """Path destinations: regular files are replaced, anything else is written."""

    @staticmethod
    def _dataset_and_bytes():
        data = SubRunDataset(*(pairs([1, -1], [-1, 1]) for _ in range(4)))
        buf = io.StringIO()
        write_subrun_csv(data, buf)
        return data, buf.getvalue().encode()

    def test_symlink_target_is_followed(self, tmp_path):
        data, expected = self._dataset_and_bytes()
        real = tmp_path / "real.csv"
        real.write_bytes(b"earlier,file\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        write_subrun_csv(data, link)
        assert link.is_symlink()
        assert real.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_fifo_is_written_in_place(self, tmp_path):
        data, expected = self._dataset_and_bytes()
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # A non-blocking read end lets the writer open the FIFO at once;
        # the output is far smaller than the pipe buffer.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_subrun_csv(data, fifo)
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert received == expected
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_character_device_is_written_in_place(self):
        data, _ = self._dataset_and_bytes()
        write_subrun_csv(data, os.devnull)
        null = Path(os.devnull)
        assert stat.S_ISCHR(null.stat().st_mode)
        assert list(null.parent.glob(f".{null.name}.*.tmp")) == []


OUTCOME_TEXTS = st.sampled_from(["+1", "-1", "1", " -1", "+01", "\t+1", "-1\xa0", "0_1", "\u0661"])
GOOD_TEXTS = {
    "pair": st.sampled_from(["ab", "ac", "db", "dc", " db", "ac ", "\tdc", "ab\xa0"]),
    # int() reads at most 4,300 digits.
    "j": st.integers(0, 10**6).map(str)
    | st.sampled_from([" 7", "+01", "0_1", "\u0661", "1" * 19, "1" * 4300, "1" * 4301]),
}
#: The csv field size limit while ingest is compared with the reference:
#: above the 4,301-digit texts that test int()'s digit limit, and low enough
#: that a field over it is read quickly in 7-byte reads.
FIELD_LIMIT = 5_000
#: The sizes a short-read stream's reads return, in turn.
SHORT_READS = st.lists(st.integers(1, 7), min_size=1, max_size=8)
BAD_TEXTS = st.sampled_from(
    ["0", "2", "x", "", " ", "1.0", "+-1", "ba", "AB", '+"1', "1" * 4301, "1\x00"]
)


#: Equal-width texts for fixed-layout text: good ones, and edits that keep
#: the width but may break the row.
FIXED_GOOD = {"pair": ["ab", "ac", "db", "dc"]}
FIXED_BAD = {"pair": ["ba", "AB"]}
FIXED_OUTCOMES, FIXED_BAD_OUTCOMES = ["+1", "-1"], ["+2", "1_"]


@st.composite
def trial_csv_text(draw, columns: tuple[str, ...]) -> str:
    """CSV text near the format: mostly valid rows, a few edits that may break it.

    In fixed-layout mode every data line has the same length with its
    commas in the same columns, and every edit keeps it so.  The header
    may be quoted, and may hold a quoted line break or a name over
    ``FIELD_LIMIT``.
    """
    fixed = draw(st.booleans())
    newline = "\n" if fixed else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = list(draw(st.permutations(columns)))
    change = draw(st.sampled_from(["none"] * 6 + ["missing", "extra", "repeat", "line break", "over limit"]))
    if change == "missing":
        header.pop(draw(st.integers(0, len(header) - 1)))
    elif change == "extra":
        header.insert(draw(st.integers(0, len(header))), "extra")
    elif change == "repeat":
        header.append(draw(st.sampled_from(columns)))
    elif change == "line break":  # a quoted header cell that spans two lines
        header.insert(draw(st.integers(0, len(header))), f"ex{newline}tra")
    elif change == "over limit":
        header.insert(draw(st.integers(0, len(header))), "x" * (FIELD_LIMIT + 1))
    # A quoted header over data rows that may hold no quote at all.
    quote_header = change == "line break" or draw(st.booleans())
    j_width = draw(st.integers(1, 7))

    def good(name):
        if not fixed:
            return draw(GOOD_TEXTS.get(name, OUTCOME_TEXTS))
        if name == "j":
            return str(draw(st.integers(0, 10**j_width - 1))).zfill(j_width)
        return draw(st.sampled_from(FIXED_GOOD.get(name, FIXED_OUTCOMES)))

    def fixed_bad(name):
        if name == "j":
            return "1" * (j_width - 1) + draw(st.sampled_from("_x "))
        return draw(st.sampled_from(FIXED_BAD.get(name, FIXED_BAD_OUTCOMES)))

    rows = [[good(name) for name in header] for _ in range(draw(st.integers(0, 30 if fixed else 9)))]
    edits = ["cell"] if fixed else ["cell"] * 3 + ["short", "long", "blank", "blank", "over limit"]
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        edit = draw(st.sampled_from(edits))
        if edit == "cell" and row:
            at = draw(st.integers(0, len(row) - 1))
            row[at] = fixed_bad(header[at]) if fixed else draw(BAD_TEXTS)
        elif edit == "short" and row:
            row.pop()
        elif edit == "long":
            row.append(draw(OUTCOME_TEXTS))
        elif edit == "over limit" and row:
            row[draw(st.integers(0, len(row) - 1))] = "1" * (FIELD_LIMIT + 1)
        elif edit == "blank":
            rows.insert(rows.index(row), [])
    # Quoting may start only some rows in, so that the reader switches
    # from splitting bytes to csv.reader part way through the input.
    quote_from = None if fixed else draw(st.none() | st.integers(0, 10))

    def line(number, cells):
        if number == 0 and quote_header:
            return ",".join(f'"{c}"' for c in cells)
        quote = quote_from is not None and number >= quote_from
        return ",".join(f'"{c}"' if quote and draw(st.booleans()) else c for c in cells)

    lead = newline if not fixed and draw(st.integers(0, 9)) == 0 else ""  # a blank first line
    tail = newline if fixed or draw(st.booleans()) else ""
    return lead + newline.join(line(i, cells) for i, cells in enumerate([header, *rows])) + tail


def _columns_or_error(parse, text):
    try:
        return parse(text)
    except CsvFormatError as exc:
        return str(exc)


def _subrun_columns(text, reads=None):
    data = ingest_csv(_source(text.encode(), reads))
    return [side.values.tolist() for p in data.lists for side in (p.a, p.b)]


def _counterfactual_columns(text, reads=None):
    data = ingest_counterfactual_csv(_source(text.encode(), reads))
    return [s.values.tolist() for s in (data.a_seq, data.d_seq, data.b_seq, data.c_seq)]


class TestIngestMatchesRowParser:
    """Block ingest against the one-row-at-a-time reference parser.

    Each input must give the same columns or the same error message;
    with 7-byte reads, blocks cut through rows and bad rows fall on
    block boundaries, and 64-byte reads give blocks of a few lines.  Each
    input is also read at the default size through a stream whose reads
    return 1 to 7 bytes.  The csv field size limit is ``FIELD_LIMIT``
    while both read.
    """

    @staticmethod
    def _compare(parse, reference, block_bytes, text, reads):
        limit = csv.field_size_limit(FIELD_LIMIT)
        try:
            expected = _columns_or_error(reference, text)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sources, "_BLOCK_BYTES", block_bytes)
                assert _columns_or_error(parse, text) == expected
            assert _columns_or_error(lambda t: parse(t, reads), text) == expected
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("block_bytes", [7, 64, sources._BLOCK_BYTES])
    @hyp_settings(max_examples=200, deadline=None)
    @given(text=trial_csv_text(("pair", "outcome_a", "outcome_b")), reads=SHORT_READS)
    def test_subrun_csv(self, block_bytes, text, reads):
        self._compare(_subrun_columns, reference_ingest_subruns, block_bytes, text, reads)

    @pytest.mark.parametrize("block_bytes", [7, 64, sources._BLOCK_BYTES])
    @hyp_settings(max_examples=200, deadline=None)
    @given(text=trial_csv_text(("j", "a", "d", "b", "c")), reads=SHORT_READS)
    def test_counterfactual_csv(self, block_bytes, text, reads):
        self._compare(_counterfactual_columns, reference_ingest_counterfactual, block_bytes, text, reads)


class _ShortReads:
    """A binary stream whose reads return at most the next of ``reads`` bytes, in turn."""

    def __init__(self, data: bytes, reads: list[int]):
        self._read, self._reads = io.BytesIO(data).read, itertools.cycle(reads)

    def read(self, size: int) -> bytes:
        return self._read(min(size, next(self._reads)))


def _source(data: bytes, reads: list[int] | None):
    """``data`` whole, or as a stream of ``reads``-byte reads."""
    return data if reads is None else _ShortReads(data, reads)


def _blocks_of(data: bytes, reads: list[int] | None = None) -> list[bytes]:
    with sources._reader(_source(data, reads)) as read:
        return list(sources._blocks(read))


#: The header's column positions and field count of the written formats.
SUBRUN_LAYOUT = ([0, 1, 2], 3)
CF_LAYOUT = ([0, 1, 2, 3, 4], 5)


def _bulk(block: bytes, layout, fixed: bool) -> tuple | None:
    """The block's rows from ``_bulk_rows`` if it reads them at fixed
    offsets (``fixed``) or split at the delimiters; else None.

    Split, the block is read with one blank line appended, which adds no
    row but makes the lines unequal.
    """
    rows = sources._bulk_rows(block if fixed else block + b"\n", *layout)
    if rows is None or isinstance(rows[1][0].starts, range) is not fixed:
        return None
    return rows


def _edit_cell(text: str, row: int, column: int, cell: str) -> str:
    """``text`` with data row ``row`` (1-based) holding ``cell`` in ``column``."""
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[column] = cell
    lines[row] = ",".join(cells)
    return "\n".join(lines)


class TestFixedLayoutBlocks:
    """Blocks of equal lines are read by byte columns, with the same result.

    Written files give blocks of many equal lines at the full block size;
    each case must give the reference parser's columns or its exact error.
    """

    @staticmethod
    def _subrun_text() -> str:
        data = generate_subruns(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS, 20_000, RngSpec(21))
        buf = io.StringIO()
        write_subrun_csv(data, buf)
        return buf.getvalue()

    @staticmethod
    def _counterfactual_text() -> str:
        buf = io.StringIO()
        write_counterfactual_csv(random_counterfactual(RngSpec(22), 20_000), buf)
        return buf.getvalue()

    def test_written_subrun_blocks_after_the_first_are_fixed(self):
        text = self._subrun_text()
        blocks = _blocks_of(text.encode())
        assert len(blocks) >= 6 and blocks[0] == f"{SUBRUN_HEADER}\n".encode()
        # The rest of the first read, cut at its last line break, is fixed-layout too.
        assert len(blocks[1]) == (sources._BLOCK_BYTES - len(blocks[0])) // 9 * 9
        assert all(_bulk(b, SUBRUN_LAYOUT, True) is not None for b in blocks[1:])
        assert _subrun_columns(text) == reference_ingest_subruns(text)

    @pytest.mark.parametrize("column, cell", [(0, "ba"), (0, "AB"), (1, "1_"), (2, "+2")])
    def test_bad_cell_in_a_later_block(self, column, cell):
        text = self._subrun_text()
        blocks = _blocks_of(text.encode())
        # A row in the middle of the fourth block.
        row = (sum(map(len, blocks[:3])) + len(blocks[3]) // 2) // 9 - 2
        edited = _edit_cell(text, row, column, cell)
        assert _bulk(_blocks_of(edited.encode())[3], SUBRUN_LAYOUT, True) is not None
        got = _columns_or_error(_subrun_columns, edited)
        assert got == _columns_or_error(reference_ingest_subruns, edited)
        assert got.endswith(f" at row {row}")

    @pytest.mark.parametrize(
        "block, fixed",
        [
            (b"ab,+1,-1\n" * 3, True),
            (b"1,+1,-1,+1,-1\n12,+1,-1,+1\n", False),  # lengths differ
            (b"ab,+1,-1\na,,+1,-1\n", False),  # a comma in a field's column
            (b"ab,+1,-1\nab,+1\n-1\n", False),  # a line break for a comma
            (b"ab,+1,-1\nab,+1,\r1\n", False),
            (b"\n\n", False),  # blank lines
            (b"ab,+1,-1\nab,+1,-1", True),  # no final line break: one is appended first
            (b"abcdefgh,+1,-1\n" * 2, True),  # a field of 8 bytes
        ],
    )
    def test_only_equal_lines_are_fixed(self, block, fixed):
        assert (_bulk(block, SUBRUN_LAYOUT, True) is not None) is fixed

    def test_non_ascii_block_goes_to_csv_reader(self):
        block = "ab,+1,-1\nab,\xe9,-1\n".encode()  # equal lines with no quote, but not ASCII
        with pytest.MonkeyPatch.context() as mp:
            read = TestSubrunCsv._counting_csv_reader(mp)
            (stop, columns, failure), = sources._tokenize(iter([block]), *SUBRUN_LAYOUT)
        assert read == [block]
        assert (stop, failure, columns[1].text(1)) == (2, None, "\xe9")

    def test_field_over_the_csv_limit_is_not_fixed(self):
        limit = csv.field_size_limit(1)
        try:
            assert sources._bulk_rows(b"ab,+1,-1\n" * 2, *SUBRUN_LAYOUT) is None
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize(
        "rows",
        [
            "ab,+1,-1\nab,+1\n",  # a block of lines with too few fields
            "ab,+1,-1\nab,+1,-1,+1\n",  # and with too many
            # One text, then the same text with a trailing NUL: the key
            # holds each text's width, so the two do not share a code.
            "ab,1,-1\nab,1\x00,-1\n",
        ],
    )
    def test_one_line_blocks(self, rows):
        text = f"{SUBRUN_HEADER}\n{rows}"
        # A wrong field count is left to the split layout, which names the row.
        fixed = _bulk(rows.split("\n", 1)[1].encode(), SUBRUN_LAYOUT, True)
        assert (fixed is None) is ("\x00" not in rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "_BLOCK_BYTES", 7)
            got = _columns_or_error(_subrun_columns, text)
        assert got == _columns_or_error(reference_ingest_subruns, text)
        assert got.endswith(" at row 2")

    def test_index_width_change_inside_a_block(self):
        blocks = _blocks_of(self._counterfactual_text().encode())
        changed = [i for i, b in enumerate(blocks) if b"\n9999," in b]
        assert changed and b"\n10000," in blocks[changed[0]]
        fixed = [_bulk(b, CF_LAYOUT, True) is not None for b in blocks]
        assert not fixed[changed[0]] and fixed[-1]

    @pytest.mark.parametrize(
        "row, column, cell",
        [
            (None, 0, ""),
            (10_003, 2, "+2"),
            (9_998, 4, "1_"),
            (18_000, 0, "1800_"),
            (18_000, 0, "1800 "),
            (18_000, 1, "+1\xa0"),
        ],
    )
    def test_counterfactual_file_across_the_width_change(self, row, column, cell):
        text = self._counterfactual_text()
        if row is not None:
            text = _edit_cell(text, row, column, cell)
        got = _columns_or_error(_counterfactual_columns, text)
        assert got == _columns_or_error(reference_ingest_counterfactual, text)

    def test_fixed_block_of_empty_indices_names_its_first_row(self):
        good, empty = "1,+1,+1,+1,1\n", ",+1,+1,+1,+1\n"
        text = f"{CF_HEADER}\n" + good * 4 + empty * 8
        with pytest.MonkeyPatch.context() as mp:
            # The first read ends after the fourth row: the empty indices start a block.
            mp.setattr(sources, "_BLOCK_BYTES", len(CF_HEADER) + 1 + 4 * len(good))
            blocks = _blocks_of(text.encode())
            got = _columns_or_error(_counterfactual_columns, text)
        assert blocks[:2] == [f"{CF_HEADER}\n".encode(), (good * 4).encode()]
        assert blocks[2].startswith(empty.encode())
        stop, columns, failure = _bulk(blocks[2], CF_LAYOUT, True)
        assert columns[0].starts == columns[0].ends and failure is None
        assert columns[0].not_plain_digits().tolist() == list(range(stop))
        assert got == _columns_or_error(reference_ingest_counterfactual, text)
        assert got == "invalid trial index '' at row 5"

    def test_field_over_the_limit_in_a_later_block(self):
        limit = csv.field_size_limit()
        text = _edit_cell(self._counterfactual_text(), 18_000, 2, "1" * (limit + 1))
        assert len(_blocks_of(text.encode()[:text.index("\n18000,")])) > 2  # past the first read
        with pytest.raises(CsvFormatError, match=rf"^field larger than field limit \({limit}\) at row 18000$"):
            ingest_counterfactual_csv(text.encode())

    @staticmethod
    def _compare_fixed(parse, reference, layout, lines, block_bytes):
        """Read equal ``lines`` after a header in reads of ``block_bytes``:
        every data block is fixed-layout, and the result is the reference's."""
        text = "\n".join(lines) + "\n"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "_BLOCK_BYTES", block_bytes)
            blocks = _blocks_of(text.encode())
            got = _columns_or_error(parse, text)
        assert all(_bulk(b, layout, True) is not None for b in blocks[1:])
        assert got == _columns_or_error(reference, text)
        return got

    @pytest.mark.parametrize("block_bytes", [64, sources._BLOCK_BYTES])
    @pytest.mark.parametrize("width", [8, 20])
    @pytest.mark.parametrize("column, cell", [(None, None), (0, "ba"), (2, "+2")])
    def test_padded_subrun_cells(self, width, column, cell, block_bytes):
        # Pairs padded on the right and outcomes on the left, as "ab      " and "      +1".
        def pad(at, text):
            return text.ljust(width) if at == 0 else text.rjust(width)

        cells = list(itertools.product(FIXED_GOOD["pair"], FIXED_OUTCOMES, FIXED_OUTCOMES)) * 3
        rows = [[pad(at, text) for at, text in enumerate(row)] for row in cells]
        if column is not None:
            rows[29][column] = pad(column, cell)
        lines = [SUBRUN_HEADER, *map(",".join, rows)]
        got = self._compare_fixed(_subrun_columns, reference_ingest_subruns, SUBRUN_LAYOUT, lines, block_bytes)
        assert isinstance(got, list) if column is None else got.endswith(" at row 30")

    @pytest.mark.parametrize("block_bytes", [64, sources._BLOCK_BYTES])
    @pytest.mark.parametrize("digits", [8, 9, 16, 19, 4301])
    @pytest.mark.parametrize("column, last", [(None, None), (0, "x"), (4, "2")])
    def test_wide_indices(self, digits, column, last, block_bytes):
        # int() reads at most 4,300 digits, so a 4,301-digit index fails at row 1.
        cells = list(itertools.product(FIXED_OUTCOMES, repeat=4)) * 3
        rows = [[f"1{i:0{digits - 1}d}", *outcomes] for i, outcomes in enumerate(cells)]
        if column is not None:  # a bad last byte: an index "1…x" or an outcome "±2"
            rows[29][column] = rows[29][column][:-1] + last
        lines = [CF_HEADER, *map(",".join, rows)]
        got = self._compare_fixed(_counterfactual_columns, reference_ingest_counterfactual, CF_LAYOUT, lines, block_bytes)
        if digits > 4300:
            assert got.startswith("invalid trial index") and got.endswith(" at row 1")
        else:
            assert isinstance(got, list) if column is None else got.endswith(" at row 30")

    @pytest.mark.parametrize("width", [0, 1, 7, 8, 16, 17, 18, 19, 4301])
    def test_both_readers_give_the_same_keys_and_suspects(self, width):
        block = "".join(f"{'1' * width},+1,-1,-1,+1\n" for _ in range(3)).encode()
        fixed, split = (_bulk(block, CF_LAYOUT, at_offsets)[1] for at_offsets in (True, False))
        for a, b in zip(fixed, split):
            assert a.keys().tolist() == b.keys().tolist()
            assert a.not_plain_digits().tolist() == b.not_plain_digits().tolist()

    def test_indices_past_ten_million(self):
        # Every data block is fixed-layout but the one in which the width of j changes.
        codes = RngSpec(23).generator().integers(0, 16, 200_000, dtype=np.uint8)
        text = f"{CF_HEADER}\n" + sources._counterfactual_text(codes, 9_900_001)
        blocks = _blocks_of(text.encode())
        split = [i for i, b in enumerate(blocks[1:], 1) if _bulk(b, CF_LAYOUT, True) is None]
        assert len(split) == 1 and b"\n9999999," in blocks[split[0]] and b"\n10000000," in blocks[split[0]]
        assert _counterfactual_columns(text) == reference_ingest_counterfactual(text)

    @pytest.mark.parametrize(
        "first, calls", [(1, 0), (9_999_001, 0), (99_999_001, 0), (10**15 - 1_000, 0), (10**16 - 1_000, 19_000)]
    )
    def test_indices_of_up_to_sixteen_digits_are_decided_in_bulk(self, first, calls):
        # 20,000 written rows from j = first: the index width changes inside a
        # block, and only the 17-digit indices go to the rule, one call a row.
        codes = RngSpec(24).generator().integers(0, 16, 20_000, dtype=np.uint8)
        text = f"{CF_HEADER}\n" + sources._counterfactual_text(codes, first)
        blocks = _blocks_of(text.encode())[1:]
        widths = [{len(line.partition(b",")[0]) for line in block.splitlines()} for block in blocks]
        assert any(len(w) > 1 for w in widths) and any(_bulk(b, CF_LAYOUT, True) for b in blocks)
        with _index_rule_calls() as texts:
            got = _counterfactual_columns(text)
        assert len(texts) == calls and all(len(t) == 17 for t in texts)
        assert got == reference_ingest_counterfactual(text)

    @hyp_settings(max_examples=300, deadline=None)
    @given(width=st.integers(0, 20), data=st.data())
    def test_rows_left_out_of_the_suspects_are_plain_indices(self, width, data):
        # Fields over digits, signs, spaces, "_", letters and NUL, in both layouts:
        # those of 1 to 16 ASCII digits, and only those, are no suspects.
        chars = st.sampled_from([*string.digits * 4, "+", "-", " ", "_", "a", "Z", "\x00"])
        def texts(size):
            return st.lists(st.text(chars, min_size=size[0], max_size=size[1]), min_size=1, max_size=8)

        for drawn, fixed in ((data.draw(texts((width, width))), True), (data.draw(texts((0, 20))), False)):
            stop, columns, failure = _bulk("".join(f"{t},\n" for t in drawn).encode(), ([0], 2), fixed)
            left_out = set(range(stop)) - set(columns[0].not_plain_digits().tolist())
            for i in left_out:
                int(drawn[i].strip())
            assert left_out == {i for i, t in enumerate(drawn) if 1 <= len(t) <= 16 and t.isdigit()}


@contextlib.contextmanager
def _index_rule_calls():
    """The texts the trial-index rule is called on, in turn."""
    texts, rule = [], sources._parse_index

    def counted(text, column):
        texts.append(text)
        return rule(text, column)

    rules = {**sources._RULES, "counterfactual": {**sources._RULES["counterfactual"], "j": counted}}
    with pytest.MonkeyPatch.context() as mp:
        # One wrapper in both places: the ingest still gives the index no table.
        mp.setattr(sources, "_parse_index", counted)
        mp.setattr(sources, "_RULES", rules)
        yield texts


@st.composite
def bulk_blocks(draw) -> tuple[bytes, int]:
    """A block of data lines and a field count, mostly that of its lines.

    Half the blocks are equal lines, half of those as the writers write
    them: ASCII with no quote, LF ends and no blank line.  Other blocks
    may hold CR or CRLF ends, blank lines, a quote or non-ASCII text, and
    any block NULs.
    """
    equal = draw(st.booleans())
    plain = equal and draw(st.booleans())
    alphabet = "a1+- \x00" + ("" if plain else draw(st.sampled_from(["", "", "", '"', "\xe9", '"\xe9'])))
    width = st.sampled_from([0, 1, 2, 2, 3, 4])  # an empty field now and then
    widths = draw(st.lists(width, min_size=1, max_size=5))

    def line() -> str:
        cells = widths if equal else draw(st.lists(width, min_size=1, max_size=5))
        return ",".join(draw(st.text(alphabet, min_size=w, max_size=w)) for w in cells)

    lines = [line() for _ in range(draw(st.integers(1, 8)))]
    for _ in range(0 if plain or draw(st.integers(0, 2)) else draw(st.integers(1, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    ends = st.sampled_from(["\n", "\r", "\r\n"])
    end = "\n" if plain else draw(ends) if equal or draw(st.booleans()) else None  # else one each
    text = "".join(line + (end or draw(ends)) for line in lines)
    if draw(st.booleans()):  # the last block of an input may lack a final line break
        text = text.rstrip("\r\n")
    return text.encode(), len(widths) if draw(st.integers(0, 3)) else draw(st.integers(1, 5))


def _read_back(rows: tuple) -> tuple:
    """A tokenizer's ``(stop, columns, failure)`` with each column's texts."""
    stop, columns, failure = rows
    return stop, [[column.text(i) for i in range(stop)] for column in columns], failure


class TestBulkRows:
    """``_bulk_rows`` reads a block as csv.reader does, or declines it.

    It declines exactly the blocks that hold a quote, non-ASCII text or a
    field over ``csv.field_size_limit()``; any other block gives the stop,
    cell texts and failure that csv.reader gives for it alone.
    """

    @hyp_settings(max_examples=1000, deadline=None)
    @given(
        drawn=bulk_blocks(),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=3),
        limit=st.sampled_from([None, None, 1, 3, 4]),
    )
    def test_rows_as_csv_reader_reads_them(self, drawn, picks, limit):
        block, n_fields = drawn
        positions = [k % n_fields for k in picks]
        old = csv.field_size_limit(limit) if limit else csv.field_size_limit()
        try:
            widest = max(map(len, re.split(rb"[,\r\n]", block)))
            declined = b'"' in block or not block.isascii() or widest > csv.field_size_limit()
            rows = sources._bulk_rows(block, positions, n_fields)
            assert (rows is None) is declined
            if rows is None:
                return
            expected = _read_back(sources._csv_fields(iter([block]), positions, n_fields))
            assert _read_back(rows) == expected
            if isinstance(rows[1][0].starts, range):
                # The same lines, ended by a line break, read in the split layout.
                twin = _bulk(block.removesuffix(b"\n") + b"\n", (positions, n_fields), False)
                assert twin is not None and _read_back(twin) == expected
        finally:
            csv.field_size_limit(old)


#: Distinct texts that int() reads as +1 or -1, each short enough for a key.
OUTCOME_SPELLINGS = ["+1", "-1", "1", "01", "+01", "-01", " 1", "1 ", " -1", "0_1", "-0_1", "001", "+001"]


def _column(texts: list[str]) -> sources._Column:
    """The first column of rows ``text,``, as a block of them is split."""
    stop, columns, failure = _bulk("".join(f"{t},\n" for t in texts).encode(), ([0], 2), False)
    assert stop == len(texts) and failure is None
    return columns[0]


@contextlib.contextmanager
def _rule_calls():
    """A count of the label and outcome rules' calls by ``(column, text)``."""
    calls = collections.Counter()

    def counted(rule):
        def call(text, column):
            calls[column, text] += 1
            return rule(text, column)

        return call

    rules = {
        kind: {name: rule if rule is sources._parse_index else counted(rule) for name, rule in columns.items()}
        for kind, columns in sources._RULES.items()
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sources, "_RULES", rules)
        yield calls


def _key_slot(text: str) -> int:
    return int(sources._slots(_column([text]).keys())[0])


def _outcome_code(text: str) -> int:
    """The code a table gives a text in an outcome column."""
    if len(text.encode()) >= 8:
        return sources._UNDECIDED
    try:
        return sources._parse_outcome(text, "outcome_a")
    except CsvFormatError:
        return sources._UNDECIDED


class TestTableLookup:
    """A table finds a text of up to 7 bytes by its packed key's slot, one of 256.

    Each text gets the code the column's rule gives it, and ``_UNDECIDED``
    where the rule rejects it or it has 8 bytes or more; the ingest's row
    loop has the rule decide those.  A slot keeps the first key placed in
    it, so a text whose slot was empty is parsed once per column.
    """

    @pytest.mark.parametrize("size", range(1, len(OUTCOME_SPELLINGS) + 1))
    def test_lookup_matches_a_binary_search(self, size):
        known = OUTCOME_SPELLINGS[: size - 1]
        table = sources._Table("outcome_a", sources._parse_outcome)
        table.codes_of(_column(known))
        absent = ["", "x", "2", "-2", "1_", "+-1", "1234567", *OUTCOME_SPELLINGS[size - 1 :]]
        texts = list(RngSpec(size).generator().permutation(known * 3 + absent + ["1" * 8, "-00000001"]))
        # The reference: each distinct text's code, found by a binary search of their sorted keys.
        keys = _column(texts).keys()
        distinct, first = np.unique(keys, return_index=True)
        expected = np.array([_outcome_code(texts[i]) for i in first])[np.searchsorted(distinct, keys)]
        for _ in range(2):  # new texts, then the texts the first block placed
            assert table.codes_of(_column(texts)).tolist() == expected.tolist()

    @pytest.mark.parametrize("bad_row", [None, 700])
    @pytest.mark.parametrize("block_bytes", [64, sources._BLOCK_BYTES])
    def test_many_spellings_ingest_like_the_row_parser(self, block_bytes, bad_row):
        slots = {_key_slot(text) for text in OUTCOME_SPELLINGS + ["ab", "ac", "db", "dc", "1" * 8]}
        assert len(slots) == len(OUTCOME_SPELLINGS) + 5  # no two in one slot
        g = RngSpec(31).generator()
        labels = np.array(["ab", "ac", "db", "dc"])
        spellings = np.array(OUTCOME_SPELLINGS)
        rows = [
            f"{label},{a},{b}"
            for label, a, b in zip(
                labels[g.integers(0, 4, 1_000)],
                spellings[g.integers(0, len(spellings), 1_000)],
                spellings[g.integers(0, len(spellings), 1_000)],
            )
        ]
        if bad_row is not None:
            rows[bad_row - 1] = rows[bad_row - 1].rsplit(",", 1)[0] + ",+2"
        text = "\n".join([SUBRUN_HEADER, *rows]) + "\n"
        with _rule_calls() as calls, pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "_BLOCK_BYTES", block_bytes)
            got = _columns_or_error(_subrun_columns, text)
        assert got == _columns_or_error(reference_ingest_subruns, text)
        # Each distinct text once per column; the bad one once more, by the row loop.
        assert calls.pop(("outcome_b", "+2"), 2) == 2
        assert set(calls.values()) == {1}
        if bad_row is None:
            assert len(calls) == 4 + 2 * len(OUTCOME_SPELLINGS)
        else:
            assert got == f"outcome outside {{+1, -1}}: '+2' in column 'outcome_b' at row {bad_row}"

    def test_every_spelling_is_parsed_once_per_column(self):
        labels = ["ab", "ac", "db", "dc"]
        rows = [
            f"{labels[i % 4]},{a},{b}"
            for i, (a, b) in enumerate(itertools.product(OUTCOME_SPELLINGS, repeat=2))
        ]
        text = "\n".join([SUBRUN_HEADER, *rows]) + "\n"
        with _rule_calls() as calls:
            got = _subrun_columns(text)
        expected = [("pair", label) for label in labels]
        expected += [(name, t) for name in ("outcome_a", "outcome_b") for t in OUTCOME_SPELLINGS]
        assert calls == collections.Counter(expected)
        assert got == reference_ingest_subruns(text)

    @pytest.mark.parametrize("write", ["subruns", "counterfactual"])
    def test_written_files_parse_each_distinct_text_once(self, write):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "_BLOCK_BYTES", 4096)
            buf = io.StringIO()
            if write == "subruns":
                write_subrun_csv(_subrun_dataset([3_000] * 4, 33), buf)
                columns = {"pair": ["ab", "ac", "db", "dc"], "outcome_a": ["+1", "-1"], "outcome_b": ["+1", "-1"]}
            else:
                write_counterfactual_csv(random_counterfactual(RngSpec(33), 3_000), buf)
                columns = dict.fromkeys("adbc", ["+1", "-1"])
            assert len(_blocks_of(buf.getvalue().encode())) > 5
            with _rule_calls() as calls:
                sources._ingest(io.StringIO(buf.getvalue()), write)
        assert calls == collections.Counter((name, t) for name, texts in columns.items() for t in texts)

    def test_a_held_slot_keeps_its_key(self):
        # A short text in the long texts' slot, seen first, does not take it.
        letters = map("".join, itertools.product(string.ascii_lowercase, repeat=2))
        short = next(t for t in letters if _key_slot(t) == _key_slot("1" * 8))
        table = sources._Table("outcome_a", sources._parse_outcome)
        long_texts = ["+1      ", "-1      ", "     -1 ", "00000001"]
        for texts in ([short], long_texts + [short, "+1"], long_texts[::-1]):
            assert table.codes_of(_column(texts)).tolist() == [_outcome_code(t) for t in texts]

    def test_new_texts_in_one_slot(self):
        one, other = "\t+001 ", "  -01  "
        assert _key_slot(one) == _key_slot(other)
        table = sources._Table("outcome_a", sources._parse_outcome)
        texts = [one, other, other, one]
        for _ in range(2):
            assert table.codes_of(_column(texts)).tolist() == [1, -1, -1, 1]
        # The slot holds one of them, with its own code.
        slot = _key_slot(one)
        held = [t for t in (one, other) if table.keys[slot] == _column([t]).keys()[0]]
        assert len(held) == 1 and table.codes[slot] == _outcome_code(held[0])

    @pytest.mark.parametrize("bad_row", [None, 20_000])
    @pytest.mark.parametrize("block_bytes", [64, sources._BLOCK_BYTES])
    def test_column_of_long_texts_ingests_like_the_row_parser(self, block_bytes, bad_row):
        g = RngSpec(32).generator()
        labels = np.array(["ab", "ac", "db", "dc"])
        padded = np.array(["+1      ", "-1      ", "     -1 ", "00000001", " +000001", "-1" + " " * 9])
        rows = [
            f"{label},{a},{b}"
            for label, a, b in zip(
                labels[g.integers(0, 4, 30_000)],
                padded[g.integers(0, len(padded), 30_000)],
                np.array(["+1", "-1"])[g.integers(0, 2, 30_000)],
            )
        ]
        if bad_row is not None:
            rows[bad_row - 1] = _edit_cell(rows[bad_row - 1], 0, 1, "+2      ")
        text = "\n".join([SUBRUN_HEADER, *rows]) + "\n"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "_BLOCK_BYTES", block_bytes)
            blocks = _blocks_of(text.encode())
            got = _columns_or_error(_subrun_columns, text)
        assert got == _columns_or_error(reference_ingest_subruns, text)
        if bad_row is not None:  # past the first read
            assert len(blocks[0] + blocks[1]) <= text.index(rows[bad_row - 1])
            assert got == f"outcome outside {{+1, -1}}: '+2      ' in column 'outcome_a' at row {bad_row}"


def _subrun_step() -> int:
    return sources._BLOCK_BYTES // sources._SUBRUN_ROWS.shape[1]


def _counterfactual_step(n: int) -> int:
    return sources._BLOCK_BYTES // (len(str(n)) + sources._COUNTERFACTUAL_CELLS.shape[1])


def _block_edges(step) -> list[int]:
    return [step - 1, step, step + 1, 2 * step + 1]


#: Trial counts one row either side of one full block, and one row past two,
#: where the block size is the one for the count's own digit count.
_COUNTERFACTUAL_EDGES = [
    n for w in range(1, 8) for n in _block_edges(_counterfactual_step(10 ** (w - 1)))
    if len(str(n)) == w
]


def _subrun_dataset(lengths: list[int], seed: int) -> SubRunDataset:
    g = RngSpec(seed).generator()
    return SubRunDataset(*(pairs(random_signs(g, n), random_signs(g, n)) for n in lengths))


def _written(write, dataset, dest) -> str:
    """The text ``write`` writes for ``dataset`` to ``dest``, a path, or to a StringIO if None."""
    if dest is None:
        buf = io.StringIO()
        write(dataset, buf)
        return buf.getvalue()
    write(dataset, dest)
    return dest.read_bytes().decode("ascii")


def _assert_same_text(got: str, expected: str) -> None:
    """Fail on the first differing line; a diff of long texts takes minutes."""
    if got != expected:
        pairs_of_lines = itertools.zip_longest(got.splitlines(True), expected.splitlines(True))
        line, (mine, theirs) = next((i, p) for i, p in enumerate(pairs_of_lines, 1) if p[0] != p[1])
        pytest.fail(f"line {line} is {mine!r}, the reference writes {theirs!r}")


class TestWritersMatchRowStrings:
    """The byte-table writers against the row-string writers they replaced.

    Each dataset must give the reference text, written to a path or to a
    text stream; with 64-byte blocks a block holds three to seven rows.
    """

    @pytest.mark.parametrize("block_bytes", [64, sources._BLOCK_BYTES])
    @hyp_settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.one_of(st.sampled_from([0, 1, *_block_edges(_subrun_step())]),
                                   st.integers(0, 40)), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        to_path=st.booleans(),
    )
    def test_subrun_csv(self, tmp_path_factory, block_bytes, lengths, seed, to_path):
        data = _subrun_dataset(lengths, seed)
        dest = tmp_path_factory.getbasetemp() / "subruns.csv" if to_path else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "_BLOCK_BYTES", block_bytes)
            got = _written(write_subrun_csv, data, dest)
        _assert_same_text(got, _written(reference_write_subrun_csv, data, None))

    @pytest.mark.parametrize("block_bytes", [64, sources._BLOCK_BYTES])
    @hyp_settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([0, 1, 9, 10, 11, 99, 100, 101, *_COUNTERFACTUAL_EDGES]),
                    st.integers(0, 1200)),
        seed=st.integers(0, 2**32 - 1),
        to_path=st.booleans(),
    )
    def test_counterfactual_csv(self, tmp_path_factory, block_bytes, n, seed, to_path):
        data = random_counterfactual(RngSpec(seed), n)
        dest = tmp_path_factory.getbasetemp() / "counterfactual.csv" if to_path else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "_BLOCK_BYTES", block_bytes)
            got = _written(write_counterfactual_csv, data, dest)
        _assert_same_text(got, _written(reference_write_counterfactual_csv, data, None))

    @pytest.mark.parametrize("to_path", [False, True])
    def test_index_widths_change_inside_blocks(self, tmp_path, to_path):
        n = 123_457
        step = _counterfactual_step(n)
        # Indices 9 -> 10, 99 -> 100 and 99999 -> 100000 each share a block.
        assert all((j - 1) // step == j // step for j in (9, 99, 99_999))
        data = random_counterfactual(RngSpec(n), n)
        dest = tmp_path / "counterfactual.csv" if to_path else None
        got = _written(write_counterfactual_csv, data, dest)
        _assert_same_text(got, _written(reference_write_counterfactual_csv, data, None))


class TestWriterWorkingSet:
    """A write's memory is bounded by its block, not by its row count."""

    def test_subrun_write_of_a_million_rows(self, tmp_path):
        data = _subrun_dataset([250_000] * 4, 31)
        assert traced_peak(write_subrun_csv, data, tmp_path / "subruns.csv") <= 1 << 20

    def test_counterfactual_write_of_a_million_rows(self, tmp_path):
        data = random_counterfactual(RngSpec(32), 1_000_000)
        assert traced_peak(write_counterfactual_csv, data, tmp_path / "counterfactual.csv") <= 1 << 20


class TestGenerateWorkingSet:
    def test_lhv_generate_of_a_million_trials(self):
        # Its four int8 sequences hold 4 MB; with one block of lambda it
        # peaks at 5.0 MB (6.0 MB with blocks of 2**16).  Drawing all lambda
        # at once peaked at 27.0 MB.
        assert traced_peak(lhv_generate, SIGN_MALUS, PHOTON_OPTIMAL_QUAD, 1_000_000, RngSpec(35)) <= 6_000_000


class TestIngestWorkingSet:
    """An ingest at 10^6 trials holds each column once, whatever its line ends.

    These ingests peak at 6.7 MB (sub-runs, LF), 6.8 MB (sub-runs,
    CR-only) and 5.5 MB (counterfactual), their results included.  Keeping
    each column as blocks to concatenate peaks at 9.0, 9.0 and 8.2 MB, and
    cutting blocks at LF alone reads the CR-only file as one block (198 MB).
    """

    @pytest.mark.parametrize("line_end", [b"\n", b"\r"], ids=["lf", "cr-only"])
    def test_subrun_ingest_of_a_million_rows(self, tmp_path, line_end):
        path = tmp_path / "subruns.csv"
        write_subrun_csv(_subrun_dataset([250_000] * 4, 33), path)
        path.write_bytes(path.read_bytes().replace(b"\n", line_end))
        assert traced_peak(ingest_csv, path) <= 8_000_000

    def test_counterfactual_ingest_of_a_million_rows(self, tmp_path):
        path = tmp_path / "counterfactual.csv"
        write_counterfactual_csv(random_counterfactual(RngSpec(34), 1_000_000), path)
        assert traced_peak(ingest_counterfactual_csv, path) <= 7_000_000
