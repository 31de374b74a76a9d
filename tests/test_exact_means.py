"""Exact means of Satterthwaite's ratio on equal-d.f. cells, against the cell draws.

For K independent chi-square(nu) components s with T = sum s and Q = sum s^2,
1/Q = int_0^inf e^(-uQ) du gives E[T^2 / Q] = int_0^inf E[T^2 e^(-uQ)] du, and

    E[T^2 e^(-uQ)] = K b2 b0^(K-1) + K (K-1) b1^2 b0^(K-2),  b_m(u) = E[s^m e^(-u s^2)].

With s = 2y^2, b_m(u) = 2^(m+1) / Gamma(nu/2) int_0^inf y^(nu+2m-1) e^(-y^2 - 4uy^4) dy,
a smooth integrand taken by Gauss-Legendre on [0, min(sqrt(nu) + 14, 3u^(-1/4))]:
past either end e^(-y^2), or e^(-4uy^4) <= e^-324, leaves a negligible tail. The
u integral is the trapezoid rule in t = log u, whose integrand decays at both ends.
"""

import math

import numpy as np
import pytest

from effdof import EstimatorVariant
from effdof.reference import REFERENCE_K_VALUES, REFERENCE_NU_VALUES
from effdof.simulation import _CRN_TAG, _factor, _ratio_stat, substream

#: A component count far beyond the tables', where only the limit K -> inf shows.
LARGE_K = 10_000


def exact_ratio_means(ks, nu: int, nodes: int = 400, h: float = 0.1) -> dict[int, float]:
    """E[(sum s)^2 / sum s^2] for K iid chi-square(nu) components, for every K in ``ks``."""
    u = np.exp(np.arange(-40.0, 90.0 + h / 2, h))[:, None]
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = np.minimum(math.sqrt(nu) + 14.0, 3.0 * u ** -0.25) / 2
    y = half * (x + 1.0)
    y2 = y * y
    # Quadrature terms of b_0; those of b_m carry y^(2m) more.
    terms = 2.0 * half * w * np.exp((nu - 1) * np.log(y) - y2 - 4.0 * u * y2 * y2
                                    - math.lgamma(nu / 2))
    b0, b1, b2 = (terms.sum(axis=1), 2.0 * (terms * y2).sum(axis=1),
                  4.0 * (terms * y2 * y2).sum(axis=1))
    means = {}
    for k in ks:
        f = (k * b2 * b0 ** (k - 1) + k * (k - 1) * b1 ** 2 * b0 ** (k - 2)) * u[:, 0]
        means[k] = h * (f.sum() - (f[0] + f[-1]) / 2)
    return means


@pytest.fixture(scope="module")
def exact():
    """Exact mean of every reference cell and of K = LARGE_K, by (K, nu)."""
    return {(k, nu): mean for nu in REFERENCE_NU_VALUES
            for k, mean in exact_ratio_means((*REFERENCE_K_VALUES, LARGE_K), nu).items()}


def _cells(seed: int, nus) -> list[tuple[int, int, float, float]]:
    """(K, nu, mean, standard error) of each reference cell's ratio in the ``nus`` columns,
    as the tables draw it."""
    return [(k, nu, *_ratio_stat(k, nu, 10_000, substream(seed, k, nu, _CRN_TAG)))
            for nu in nus for k in REFERENCE_K_VALUES]


@pytest.fixture(scope="module", params=[1, 8191])
def nu1_cells(request):
    return _cells(request.param, (1,))


@pytest.fixture(scope="module", params=[1, 8191])
def nu3_nu80_cells(request):
    return _cells(request.param, (3, 80))


@pytest.fixture(scope="module", params=[1, 8191])
def nu5_to_nu30_cells(request):
    return _cells(request.param, (5, 7, 9, 15, 30))


def _z_scores(cells, exact, shift: float = 1.0) -> list[float]:
    return [(mean * shift - exact[k, nu]) / se for k, nu, mean, se in cells]


def _assert_agree(z: list[float]) -> None:
    assert max(map(abs, z)) <= 4.0, z
    assert abs(sum(z) / math.sqrt(len(z))) <= 4.0, z


def _assert_detected(z: list[float]) -> None:
    assert sum(z) / math.sqrt(len(z)) > 4.0, z


def test_two_components_single_df_is_sqrt2():
    assert exact_ratio_means([2], 1)[2] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_doubling_nodes_and_halving_step_agrees(exact):
    finer = exact_ratio_means([40, LARGE_K], 1, 800, 0.05)
    assert finer[40] == pytest.approx(exact[40, 1], rel=1e-9)
    assert finer[LARGE_K] == pytest.approx(exact[LARGE_K, 1], rel=1e-8)


@pytest.mark.parametrize("nu", [3, 9, 30, 80])
def test_doubling_nodes_and_halving_step_agrees_beyond_nu1(nu, exact):
    assert exact_ratio_means([40], nu, 800, 0.05)[40] == pytest.approx(exact[40, nu], rel=1e-9)


def test_nu1_cells_agree_with_exact_means(nu1_cells, exact):
    _assert_agree(_z_scores(nu1_cells, exact))


def test_half_percent_bias_is_detected(nu1_cells, exact):
    _assert_detected(_z_scores(nu1_cells, exact, shift=1.005))


def test_nu3_and_nu80_cells_agree_with_exact_means(nu3_nu80_cells, exact):
    _assert_agree(_z_scores(nu3_nu80_cells, exact))


def test_half_percent_bias_is_detected_at_nu3_and_nu80(nu3_nu80_cells, exact):
    _assert_detected(_z_scores(nu3_nu80_cells, exact, shift=1.005))


def test_nu5_to_nu30_cells_agree_with_exact_means(nu5_to_nu30_cells, exact):
    _assert_agree(_z_scores(nu5_to_nu30_cells, exact))


def test_half_percent_bias_is_detected_at_nu5_to_nu30(nu5_to_nu30_cells, exact):
    _assert_detected(_z_scores(nu5_to_nu30_cells, exact, shift=1.005))


def _relative_bias(variant: EstimatorVariant, k: int, nu: int, exact) -> float:
    """Exact mean of ``variant`` at the cell (K, nu), relative to K nu, minus 1."""
    return exact[k, nu] * _factor(variant, k, nu) / (k * nu) - 1.0


@pytest.mark.parametrize("nu", [1, 3, 9, 30, 80])
def test_recommended_estimator_is_consistent_as_k_grows(nu, exact):
    # At nu = 1 the bias is 0.068 at K = 10 and 2.4e-4 at K = LARGE_K.
    assert abs(_relative_bias(EstimatorVariant.recommended(), LARGE_K, nu, exact)) < 3e-4


@pytest.mark.parametrize("nu", [1, 3, 9, 30, 80])
def test_satterthwaite_bias_tends_to_minus_two_over_nu_plus_two(nu, exact):
    bias = _relative_bias(EstimatorVariant.satterthwaite(), LARGE_K, nu, exact)
    assert bias == pytest.approx(-2.0 / (nu + 2), abs=1e-3)


@pytest.mark.parametrize("nu", [1, 3, 9, 30, 80])
def test_vd2025_equals_satterthwaite_at_two_components(nu, exact):
    # Its p = 1 shrink term 1 + 2/nu cancels the nu + 2 denominator exactly.
    assert _relative_bias(EstimatorVariant.von_davier_2025(), 2, nu, exact) == pytest.approx(
        _relative_bias(EstimatorVariant.satterthwaite(), 2, nu, exact), rel=1e-12)
