"""Flip probability vectors and the single-chain transition kernel."""

from fractions import Fraction

import numpy as np
import pytest

from flipdyn import (
    Coloring,
    FlipProbabilities,
    Graph,
    InputError,
    alt_vector,
    flip_step,
    flip_step_distribution,
    mixed_vector,
    resolve_probabilities,
    stationary_check_tiny,
    vigoda_vector,
)
import flipdyn.dynamics as dynamics
from flipdyn.errors import CapacityError

F = Fraction


class TestFlipProbabilities:
    def test_invariants_enforced(self):
        with pytest.raises(InputError):
            FlipProbabilities.from_values(["1/2"])  # p_1 != 1
        with pytest.raises(InputError):
            FlipProbabilities.from_values(["1", "2/3"])  # 2 p_2 > 1
        with pytest.raises(InputError):
            FlipProbabilities.from_values(["1", "1/4", "1/3"])  # not monotone
        with pytest.raises(InputError):
            FlipProbabilities.from_values(["1", "-1/4"])
        with pytest.raises(InputError):
            FlipProbabilities.from_values([])

    def test_mass_padding(self):
        p = FlipProbabilities.from_values(["1", "1/2", "1/4"])
        assert p.n_max == 3
        assert p.mass(1) == 1
        assert p.mass(3) == F(1, 4)
        assert p.mass(4) == 0
        assert p.mass(0) == 0
        assert p.mass_float(2) == 0.5

    def test_integer_masses_over_one_scale(self):
        # scale is the lcm of the denominators: the smallest L with every
        # p_alpha * L an integer
        assert vigoda_vector().scale == 84
        assert alt_vector().scale == 3000
        for p in (vigoda_vector(), alt_vector(), mixed_vector()):
            for alpha in range(0, p.n_max + 2):
                scaled = p.mass_scaled(alpha)
                assert type(scaled) is int
                assert scaled == p.mass(alpha) * p.scale

    def test_trailing_zeros_trimmed(self):
        p = FlipProbabilities.from_values(["1", "1/2", "0", "0"])
        assert p.n_max == 2

    def test_json_round_trip(self, tmp_path):
        p = alt_vector()
        path = str(tmp_path / "vec.json")
        p.save(path)
        assert FlipProbabilities.load(path) == p
        assert resolve_probabilities(path) == p

    def test_bad_json(self):
        with pytest.raises(InputError):
            FlipProbabilities.from_json("not json")
        with pytest.raises(InputError):
            FlipProbabilities.from_json('{"q": []}')
        with pytest.raises(InputError):
            FlipProbabilities.load("/nonexistent/vec.json")

    def test_presets(self):
        assert vigoda_vector().mass(2) == F(13, 42)
        assert alt_vector().mass(2) == F(463, 1500)
        assert vigoda_vector().mass(6) == F(1, 84)
        for name in ("vigoda", "alt", "mixed"):
            v = resolve_probabilities(name)
            assert v.mass(1) == 1 and v.n_max <= 7

    def test_shifted_cap(self):
        # The constructor caps j * p_j <= 1 already imply the shifted cap
        # (j + 2) * p_j <= 3 ((j+2)/j <= 3 for j >= 1), so every vector
        # that constructs must satisfy it -- including the extremal
        # all-caps-tight vector where 3 * p_1 = 3 exactly.
        tight = FlipProbabilities.from_values(
            ["1", "1/2", "1/3", "1/4", "1/5", "1/6", "1/7"]
        )
        for v in (mixed_vector(), vigoda_vector(), alt_vector(), tight):
            assert all((j + 2) * v.mass(j) <= 3 for j in range(1, v.n_max + 1))


class TestFlipStepDistribution:
    def test_path_distribution_exact(self):
        # 0-1-2 colored (0,1,0) with k=2: the single alternating flip
        # {0,1,2} for color pair {0,1} wins mass p_3/6 from each of its
        # three selecting draws... total p_3 * 3 / (3*2*3)?  No: each flip
        # carries p_alpha / nk in total, nk = 6.
        g = Graph(3, [(0, 1), (1, 2)])
        col = Coloring((0, 1, 0), 2)
        p = FlipProbabilities.from_values(["1", "1/2", "1/3"])
        dist = flip_step_distribution(g, col, p)
        key = (frozenset({0, 1, 2}), 0, 1)
        assert dist[key] == F(1, 3) / 6
        assert dist[None] == 1 - F(1, 3) / 6
        assert sum(dist.values()) == 1

    def test_zero_mass_flips_omitted(self):
        g = Graph(3, [(0, 1), (1, 2)])
        col = Coloring((0, 1, 0), 2)
        p = FlipProbabilities.from_values(["1", "1/2"])  # p_3 = 0
        dist = flip_step_distribution(g, col, p)
        assert set(dist) == {None}
        assert dist[None] == 1

    def test_rows_sum_to_one_many_states(self, paper_vectors):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        import itertools

        for probs in paper_vectors.values():
            for colors in itertools.product(range(3), repeat=3):
                dist = flip_step_distribution(g, Coloring(colors, 3), probs)
                assert sum(dist.values()) == 1


class TestFlipStep:
    def test_reproducible_and_valid(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        col = Coloring((0, 1, 0, 1), 3)
        probs = vigoda_vector()
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        seq1 = [flip_step(g, col, probs, rng1).colors for _ in range(50)]
        seq2 = [flip_step(g, col, probs, rng2).colors for _ in range(50)]
        assert seq1 == seq2

    def test_empirical_matches_exact(self):
        # Chi-squared-free sanity: empirical frequencies of one-step
        # results track the exact kernel within 4 sigma.
        g = Graph(3, [(0, 1), (1, 2)])
        col = Coloring((0, 1, 0), 2)
        probs = FlipProbabilities.from_values(["1", "1/2", "1/3"])
        exact = flip_step_distribution(g, col, probs)
        rng = np.random.default_rng(7)
        n = 20000
        hits = 0
        flipped = (1, 0, 1)
        for _ in range(n):
            if flip_step(g, col, probs, rng).colors == flipped:
                hits += 1
        p = float(exact[(frozenset({0, 1, 2}), 0, 1)])
        se = (p * (1 - p) / n) ** 0.5
        assert abs(hits / n - p) < 4 * se


class TestStationaryTiny:
    def test_triangle_k3(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        rep = stationary_check_tiny(g, 3, vigoda_vector())
        assert rep.ok
        assert rep.n_states == 27
        assert rep.proper_states == 6
        assert rep.stochastic_ok and rep.symmetry_ok

    def test_path_k2_mixed(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        rep = stationary_check_tiny(g, 2, mixed_vector())
        assert rep.ok
        assert rep.proper_states == 2

    def test_state_cap(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(CapacityError):
            stationary_check_tiny(g, 4, vigoda_vector(), state_cap=100)

    def _check_with(self, monkeypatch, state, tamper):
        """The triangle at k = 3 with the kernel's row at state tampered."""
        exact = dynamics.flip_step_distribution

        def tampered(g, col, probs):
            dist = exact(g, col, probs)
            if col.colors == state:
                tamper(dist)
            return dist

        monkeypatch.setattr(dynamics, "flip_step_distribution", tampered)
        return stationary_check_tiny(Graph(3, [(0, 1), (0, 2), (1, 2)]), 3, vigoda_vector())

    def test_row_sum_failure(self, monkeypatch):
        def noop_to_flip(dist):
            flip_key = next(key for key in dist if key is not None)
            dist[flip_key] += F(1, 100)
            dist[None] -= F(1, 100)

        # At (0, 0, 0) the six singleton flips leave a no-op mass of
        # exactly 1/k, so any mass moved onto a flip takes it below.  The
        # state is improper, so only the row is off.
        rep = self._check_with(monkeypatch, (0, 0, 0), noop_to_flip)
        assert not rep.stochastic_ok
        assert rep.symmetry_ok
        assert not rep.ok
        assert rep.failures == ("row not stochastic at state (0, 0, 0)",)

    def test_negative_flip_mass_is_caught(self, monkeypatch):
        def negative_flip(dist):
            flip_key = next(key for key in dist if key is not None)
            dist[None] += dist[flip_key] + F(1, 100)
            dist[flip_key] = -F(1, 100)

        rep = self._check_with(monkeypatch, (0, 0, 0), negative_flip)
        assert not rep.stochastic_ok
        assert rep.failures == ("row not stochastic at state (0, 0, 0)",)

    def test_inflated_scaled_masses_are_caught(self, monkeypatch):
        # One unit over L * n * k more on every flip: the row sums stay 1,
        # since the no-op mass is the remainder, but (0, 0, 0) falls
        # below the 1/k floor.
        real = FlipProbabilities.mass_scaled
        monkeypatch.setattr(FlipProbabilities, "mass_scaled",
                            lambda self, alpha: real(self, alpha) + 1)
        rep = stationary_check_tiny(Graph(3, [(0, 1), (0, 2), (1, 2)]), 3, vigoda_vector())
        assert not rep.stochastic_ok
        assert "row not stochastic at state (0, 0, 0)" in rep.failures

    def test_symmetry_failure(self, monkeypatch):
        def shift_to_noop(dist):
            flip_key = next(key for key in dist if key is not None)
            dist[flip_key] -= F(1, 100)
            dist[None] += F(1, 100)

        # A proper state's row still sums to 1, but one of its flips now
        # has less mass than its reverse.
        rep = self._check_with(monkeypatch, (0, 1, 2), shift_to_noop)
        assert rep.stochastic_ok
        assert not rep.symmetry_ok
        assert not rep.ok
        assert len(rep.failures) == 1 and rep.failures[0].startswith("asymmetry")
